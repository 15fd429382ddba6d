/**
 * @file
 * IOCA-style I/O-aware LLC controller (PAPERS.md #1 -- same first
 * author as IAT, "nearly the same monitor inputs, different decision
 * logic").
 *
 * Where IAT runs a Mealy FSM over *relative changes* in the DDIO
 * counters, IOCA's controller is a watermark scheme over the
 * *absolute* I/O pressure: it smooths the DDIO miss rate with an
 * EWMA and compares it against a high and a low watermark derived
 * from THRESHOLD_MISS_LOW. Sustained pressure above the high
 * watermark grows the I/O (DDIO) partition one way per interval;
 * sustained idling below the low watermark returns ways to the
 * cores. Patience counters (consecutive polls before acting) replace
 * IAT's stability gate as the hysteresis mechanism.
 *
 * Core ways are managed like the dCAT-style baseline -- grow the
 * tenant with the steepest rising miss rate whose IPC dropped, one
 * reclaim per interval -- but on IAT's shared WayAllocator, with I/O
 * tenants ordered *adjacent to DDIO* (top of the stack): IOCA's
 * philosophy is that the I/O-handling tenants are the ones that
 * benefit from bordering the inbound-DMA ways.
 *
 * decide() is a pure function of the sample plus the controller's
 * EWMA/streak state, split out so the differential tests can pin its
 * decisions against hand-computed oracles without a platform.
 */

#ifndef IATSIM_CORE_IOCA_HH
#define IATSIM_CORE_IOCA_HH

#include <cstddef>
#include <vector>

#include "core/allocator.hh"
#include "core/monitor.hh"
#include "core/params.hh"
#include "core/policy.hh"
#include "core/tenant.hh"
#include "rdt/pqos.hh"

namespace iat::core {

/** IOCA knobs, derived from IatParams unless overridden. */
struct IocaParams
{
    /** EWMA smoothing factor for the DDIO miss rate. */
    double ewma_alpha = 0.3;

    /** High watermark = this factor x threshold_miss_low_per_s. */
    double high_watermark_factor = 4.0;

    /** Low watermark = this factor x threshold_miss_low_per_s. */
    double low_watermark_factor = 1.0;

    /** Consecutive polls above high before growing DDIO. */
    unsigned grow_patience = 2;

    /** Consecutive polls below low before shrinking DDIO. */
    unsigned shrink_patience = 4;
};

/** See the file comment. */
class IocaPolicy : public Policy
{
  public:
    IocaPolicy(rdt::PqosSystem &pqos, TenantRegistry &registry,
               const IatParams &params,
               const IocaParams &ioca = IocaParams{});

    void tick(double now) override;
    PolicyKind kind() const override { return PolicyKind::Ioca; }

    /** What one poll decided (the pure core's output). */
    struct Decision
    {
        int ddio_delta = 0; ///< -1, 0 or +1 ways
        /** Tenant to grow one way from the idle pool; npos = none. */
        std::size_t grow_tenant = kNone;
        /** Tenant to reclaim one way from; npos = none. */
        std::size_t shrink_tenant = kNone;
        static constexpr std::size_t kNone = ~std::size_t{0};
    };
    static constexpr std::size_t kNoTenant = Decision::kNone;

    /**
     * The decision core: updates the EWMA and patience streaks from
     * @p sample and returns what to do. Pure in the sense that it
     * touches no hardware -- tests drive it with synthetic samples.
     * @p tenant_ways / @p idle_ways describe the current allocation
     * (shrink candidates must sit above their initial grant).
     */
    Decision decide(const SystemSample &sample,
                    const std::vector<unsigned> &tenant_ways,
                    const std::vector<unsigned> &initial_ways,
                    unsigned idle_ways);

    /// @name Controller introspection (tests, gauges)
    /// @{
    double missRateEwma() const { return ewma_; }
    unsigned ddioWays() const { return alloc_.ddioWays(); }
    const WayAllocator &allocator() const { return alloc_; }
    Monitor &monitor() { return monitor_; }
    /// @}

  private:
    void setup();
    void applyMasks();

    rdt::PqosSystem &pqos_;
    TenantRegistry &registry_;
    IatParams params_;
    IocaParams ioca_;
    Monitor monitor_;
    WayAllocator alloc_;
    std::vector<unsigned> initial_ways_;
    std::vector<cache::WayMask> programmed_;
    unsigned programmed_ddio_ = 0;

    double ewma_ = 0.0;
    bool ewma_primed_ = false;
    unsigned above_streak_ = 0;
    unsigned below_streak_ = 0;
};

} // namespace iat::core

#endif // IATSIM_CORE_IOCA_HH
