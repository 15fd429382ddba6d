/**
 * @file
 * FaultInjector: the runtime that executes a FaultPlan.
 *
 * The injector sits on three seams, all of them pre-existing
 * interfaces of the fault-free simulator:
 *
 *  - the MsrBus fault hook (rdt::MsrFaultHook): counter wraparound
 *    offsets and multiplicative sampling noise on reads, transient
 *    rejection of writes;
 *  - engine one-shot/periodic hooks: the armed window, NIC link
 *    flaps, Rx ring stalls and tenant churn, all scheduled in
 *    simulated time so they replay identically;
 *  - the policy's poll wrapper (dropPoll(), called from the hook
 *    attachPolicy() installs): dropped polls, which the daemon's
 *    watchdog then observes as late ticks.
 *
 * All randomness comes from one seeded Rng, so a (plan, seed) pair
 * determines every event: chaos campaigns replay byte-identically.
 * Every injected event is counted, and mirrored into the telemetry
 * metrics/tracer when a session is attached.
 *
 * Lifecycle contract: arm() must be called after the policy is
 * attached to the engine, so the daemon's setup tick at t=0 runs
 * before any fault can fire (real deployments, too, boot before the
 * weather starts).
 */

#ifndef IATSIM_FAULT_INJECTOR_HH
#define IATSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tenant.hh"
#include "fault/plan.hh"
#include "net/nic.hh"
#include "rdt/msr.hh"
#include "sim/engine.hh"
#include "util/rng.hh"

namespace iat::core {
class Policy;
} // namespace iat::core

namespace iat::obs {
class Counter;
class Telemetry;
class Tracer;
} // namespace iat::obs

namespace iat::fault {

/** Executes a FaultPlan against a live simulation; see file comment. */
class FaultInjector : public rdt::MsrFaultHook
{
  public:
    /**
     * @param plan      The campaign; seed must be resolved (non-zero
     *                  seeds are used verbatim; a zero seed falls
     *                  back to a fixed default, so prefer resolving
     *                  against the trial seed before construction).
     * @param telemetry Optional session for metrics/trace emission.
     */
    explicit FaultInjector(const FaultPlan &plan,
                           obs::Telemetry *telemetry = nullptr);

    /** Wire NICs subject to link flap / ring stall (pre-arm). */
    void addNic(net::NicQueue &nic);

    /** Wire the registry subject to tenant churn (pre-arm). */
    void setRegistry(core::TenantRegistry *registry);

    /**
     * Schedule the campaign: install/remove the MSR hook at the armed
     * window's edges and register the periodic fault schedules. Call
     * once, after the policy under test is attached to @p engine.
     */
    void arm(sim::Engine &engine, sim::Platform &platform);

    /**
     * Poll-drop gate, called by the policy hook before each tick;
     * true means this poll is lost (the hook skips the tick).
     */
    bool dropPoll(double now);

    /// @name rdt::MsrFaultHook
    /// @{
    std::uint64_t onRead(cache::CoreId core, std::uint32_t addr,
                         std::uint64_t value) override;
    bool onWrite(cache::CoreId core, std::uint32_t addr,
                 std::uint64_t value) override;
    /// @}

    bool armed() const { return armed_; }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Runtime kill switch (service toggle-faults): while suspended,
     * every injection point is a no-op, but the armed window and the
     * fault schedules keep ticking, so resuming mid-run picks the
     * campaign back up where the plan says it should be.
     */
    void setSuspended(bool suspended) { suspended_ = suspended; }
    bool suspended() const { return suspended_; }

    /// @name Injected-event accounting
    /// @{
    std::uint64_t readFaults() const { return read_faults_; }
    std::uint64_t writeRejects() const { return write_rejects_; }
    std::uint64_t pollsDropped() const { return polls_dropped_; }
    std::uint64_t linkFlaps() const { return link_flaps_; }
    std::uint64_t ringStalls() const { return ring_stalls_; }
    std::uint64_t churnEvents() const { return churn_events_; }
    /// @}

  private:
    /** Is @p addr a performance counter (perturbable)? Configuration
     *  registers are never perturbed: corrupting, say, a PQR_ASSOC
     *  read-modify-write would make the *daemon* write garbage, which
     *  is a different fault model than sampling noise. */
    static bool isCounterAddr(std::uint32_t addr);

    void traceEvent(double now, const char *name, double value);

    /** Is injection live right now (armed and not suspended)? */
    bool active() const { return armed_ && !suspended_; }

    FaultPlan plan_;
    Rng rng_;
    bool armed_ = false;
    bool suspended_ = false;

    std::vector<net::NicQueue *> nics_;
    core::TenantRegistry *registry_ = nullptr;
    /** Churned-out tenant awaiting re-arrival. */
    std::optional<core::TenantSpec> parked_;

    std::uint64_t read_faults_ = 0;
    std::uint64_t write_rejects_ = 0;
    std::uint64_t polls_dropped_ = 0;
    std::uint64_t link_flaps_ = 0;
    std::uint64_t ring_stalls_ = 0;
    std::uint64_t churn_events_ = 0;

    obs::Tracer *tracer_ = nullptr;
    obs::Counter *m_read_faults_ = nullptr;
    obs::Counter *m_write_rejects_ = nullptr;
    obs::Counter *m_polls_dropped_ = nullptr;
    obs::Counter *m_link_flaps_ = nullptr;
    obs::Counter *m_ring_stalls_ = nullptr;
    obs::Counter *m_churn_events_ = nullptr;
};

/**
 * Hook @p policy's tick into @p engine every @p interval seconds,
 * starting with the setup tick at t=0. With an @p injector, each
 * tick first asks dropPoll() whether this poll is lost. Call before
 * FaultInjector::arm(); @p policy must outlive the engine's runs.
 *
 * Static gets no hook: it programmed its layout at construction, and
 * a hook would draw dropPoll() coins from the injector's shared Rng
 * and re-apply the layout on churn, changing every faulted run.
 */
void attachPolicy(sim::Engine &engine, core::Policy &policy,
                  double interval, FaultInjector *injector = nullptr);

} // namespace iat::fault

#endif // IATSIM_FAULT_INJECTOR_HH
