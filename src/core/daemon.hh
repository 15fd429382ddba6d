/**
 * @file
 * The IAT daemon: the paper's contribution, end to end (SS IV, SS V).
 *
 * Each tick executes the six-step loop of Fig 5:
 *
 *   Get Tenant Info -> LLC Alloc    (on start / registry change)
 *   Poll Prof Data                  (Monitor)
 *   State Transition                (IatFsm, when unstable)
 *   LLC Re-alloc                    (WayAllocator + shuffle + pqos)
 *   Sleep                           (return; the engine re-ticks)
 *
 * The daemon is written against the PqosSystem facade only, exactly
 * like the real implementation is written against the authors'
 * iat-pqos: porting it to hardware means swapping the facade.
 *
 * Feature toggles mirror the paper's ablations: SS VI-B disables DDIO
 * tuning to isolate shuffling ("IAT w/o ddio" in the Latent-Contender
 * experiment); SS VI-C disables tenant way tuning for the application
 * studies; Core-only disables both the I/O-Demand path and shuffling.
 */

#ifndef IATSIM_CORE_DAEMON_HH
#define IATSIM_CORE_DAEMON_HH

#include <cstdint>
#include <vector>

#include "core/allocator.hh"
#include "core/fsm.hh"
#include "core/monitor.hh"
#include "core/params.hh"
#include "core/policy.hh"
#include "core/shuffle.hh"
#include "core/tenant.hh"
#include "rdt/pqos.hh"

namespace iat::obs {
class Counter;
class Histogram;
class Telemetry;
class Tracer;
} // namespace iat::obs

namespace iat::core {

/** Wall-clock and register cost of one daemon iteration (Fig 15). */
struct DaemonStepTiming
{
    double poll_seconds = 0.0;
    double transition_seconds = 0.0;
    double realloc_seconds = 0.0;
    std::uint64_t msr_reads = 0;
    std::uint64_t msr_writes = 0;
    bool stable = true;
};

/** The user-space daemon; see file comment. */
class IatDaemon : public Policy
{
  public:
    IatDaemon(rdt::PqosSystem &pqos, TenantRegistry &registry,
              const IatParams &params,
              TenantModel model = TenantModel::Slicing);
    ~IatDaemon() override;

    /** Run one iteration at simulated time @p now. */
    void tick(double now) override;

    /** IatNoDdio while the footnote-3 ablation is on, else Iat. */
    PolicyKind
    kind() const override
    {
        return ddio_tuning_ ? PolicyKind::Iat : PolicyKind::IatNoDdio;
    }
    const IatDaemon *daemon() const override { return this; }
    IatDaemon *daemon() override { return this; }

    /**
     * Attach an observability session (nullptr detaches). The daemon
     * registers its metrics once here -- tick counters, Fig 15 step
     * timing histograms, MSR access counters -- and, when the
     * session's tracer is enabled, emits decision events: FSM
     * transitions, stability gate verdicts, way-mask programming,
     * shuffle decisions and DDIO pressure tracks. With no telemetry
     * attached the hot path pays only null checks.
     */
    void setTelemetry(obs::Telemetry *telemetry);

    /// @name Ablation toggles
    /// @{
    void setDdioTuningEnabled(bool on) { ddio_tuning_ = on; }
    void setShuffleEnabled(bool on) { shuffle_enabled_ = on; }
    void setTenantTuningEnabled(bool on) { tenant_tuning_ = on; }
    /// @}

    /**
     * Toggle fault hardening (on by default): outlier clamping in the
     * Monitor, MSR write retry, the missed-poll watchdog, and the
     * degraded-mode fallback. The kill switch exists so chaos A/B
     * runs can demonstrate what the hardening buys.
     */
    void setHardeningEnabled(bool on);
    bool hardeningEnabled() const { return hardening_; }

    /// @name Hardening observability
    /// @{
    bool degraded() const { return degraded_; }
    std::uint64_t missedPolls() const { return missed_polls_; }
    std::uint64_t badSamples() const { return bad_samples_; }
    std::uint64_t degradedEnters() const { return degraded_enters_; }
    std::uint64_t degradedExits() const { return degraded_exits_; }
    std::uint64_t writeRetries() const { return write_retries_; }
    std::uint64_t writeFailures() const { return write_failures_; }
    /// @}

    IatState state() const { return fsm_.state(); }
    unsigned ddioWays() const { return alloc_.ddioWays(); }
    const WayAllocator &allocator() const { return alloc_; }
    const IatParams &params() const { return params_; }
    TenantModel model() const { return model_; }

    const SystemSample &lastSample() const { return last_sample_; }
    const DaemonStepTiming &lastTiming() const { return last_timing_; }

    std::uint64_t ticks() const { return ticks_; }
    std::uint64_t stableTicks() const { return stable_ticks_; }
    std::uint64_t shuffles() const { return shuffles_; }

    Monitor &monitor() { return monitor_; }

  private:
    /** What the stability gate decided for this iteration. */
    enum class GateAction
    {
        Sleep,        ///< everything stable (or IPC-only change)
        RunFsm,       ///< meaningful change: advance the FSM
        ShuffleOnly,  ///< SS IV-B case 3
        CoreOnlyGrow, ///< SS IV-B case 2 (target in gate_tenant_)
    };

    void getTenantInfoAndAlloc();
    void traceTransition(IatState from, IatState to);

    /**
     * Run one programming op (a pqos setter returning success); on
     * transient rejection the hardened path retries up to
     * IatParams::msr_write_retries times in-tick. Returns whether
     * the op eventually succeeded.
     */
    template <typename Op> bool programOp(Op &&op);

    /** Per-sample health accounting; may enter/exit degraded mode. */
    void updateSampleHealth(const SystemSample &sample);
    void enterDegraded();
    void exitDegraded();
    GateAction stabilityGate(const SystemSample &sample);
    void actOnState(IatState state, const SystemSample &sample);
    bool reclaimOne(const SystemSample &sample);
    std::size_t selectCoreDemandTenant(const SystemSample &sample);
    void maybeShuffle(const SystemSample &sample);
    void applyMasks();

    rdt::PqosSystem &pqos_;
    TenantRegistry &registry_;
    IatParams params_;
    TenantModel model_;

    Monitor monitor_;
    IatFsm fsm_;
    WayAllocator alloc_;
    std::vector<unsigned> initial_ways_;
    std::vector<cache::WayMask> programmed_masks_;
    unsigned programmed_ddio_ways_ = 0;

    bool ddio_tuning_ = true;
    bool shuffle_enabled_ = true;
    bool tenant_tuning_ = true;

    SystemSample last_sample_;
    DaemonStepTiming last_timing_;
    std::uint64_t prev_total_refs_ = 0;
    bool have_ref_history_ = false;
    double prev_refs_delta_ = 0.0;
    std::size_t gate_tenant_ = 0;

    /** Case-2 growth in flight: keep granting one way per iteration
     *  while the tenant's miss rate stays near its trigger level. */
    std::size_t pending_grow_tenant_;
    double pending_grow_missrate_ = 0.0;

    std::uint64_t ticks_ = 0;
    std::uint64_t stable_ticks_ = 0;
    std::uint64_t shuffles_ = 0;

    /// @name Hardening state
    /// @{
    bool hardening_ = true;
    bool degraded_ = false;
    unsigned bad_streak_ = 0;
    unsigned good_streak_ = 0;
    /** Missed-poll watchdog: timestamp of the previous tick. */
    double last_tick_time_ = 0.0;
    bool have_tick_time_ = false;
    std::uint64_t missed_polls_ = 0;
    std::uint64_t bad_samples_ = 0;
    std::uint64_t degraded_enters_ = 0;
    std::uint64_t degraded_exits_ = 0;
    std::uint64_t write_retries_ = 0;
    std::uint64_t write_failures_ = 0;
    /// @}

    /// @name Observability (all null when detached)
    /// @{
    obs::Telemetry *telemetry_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    obs::Counter *m_ticks_ = nullptr;
    obs::Counter *m_stable_ticks_ = nullptr;
    obs::Counter *m_transitions_ = nullptr;
    obs::Counter *m_shuffles_ = nullptr;
    obs::Counter *m_way_reallocs_ = nullptr;
    obs::Counter *m_msr_reads_ = nullptr;
    obs::Counter *m_msr_writes_ = nullptr;
    obs::Counter *m_bad_samples_ = nullptr;
    obs::Counter *m_missed_polls_ = nullptr;
    obs::Counter *m_degraded_ = nullptr;
    obs::Counter *m_write_retries_ = nullptr;
    obs::Counter *m_write_failures_ = nullptr;
    obs::Histogram *h_poll_ = nullptr;
    obs::Histogram *h_transition_ = nullptr;
    obs::Histogram *h_realloc_ = nullptr;
    double trace_now_ = 0.0; ///< tick timestamp for nested emitters
    /// @}
};

} // namespace iat::core

#endif // IATSIM_CORE_DAEMON_HH
