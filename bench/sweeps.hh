/**
 * @file
 * Sweep bodies, registered as exp::TrialRegistry factories: iatexp
 * runs each one as a campaign from its declarative spec under
 * experiments/ (Figs 3, 9 and 10, the bakeoff, chaos, cluster and
 * the fuzz repros). The Fig 9 ramp and the bakeoff case are
 * exported too, for the tests that pin them.
 *
 * A body builds its entire world (Platform, Engine, scenario) from
 * its arguments -- nothing global -- which is what lets the runner
 * execute trials concurrently with bit-identical results.
 */

#ifndef IATSIM_BENCH_SWEEPS_HH
#define IATSIM_BENCH_SWEEPS_HH

#include <cstdint>
#include <vector>

#include "bench/common.hh"
#include "exp/trial.hh"
#include "fault/plan.hh"

namespace iat::bench {

/// @name Fig 9 and chaos: OVS vs flow count, ramped within one run
/// @{

/** One settled plateau of the flow-count ramp. */
struct Fig09Plateau
{
    std::uint64_t flows = 0;
    double ovs_llc_miss_mps = 0.0;
    double ovs_ipc = 0.0;
    unsigned ovs_ways = 0;
    double tx_mpps = 0.0;
};

/** The flow populations the ramp steps through, in order. */
const std::vector<std::uint64_t> &fig09FlowPlateaus();

/** One run of the Fig 9 ramp: the per-plateau rows plus the
 *  end-of-run fault/hardening summary. */
struct ChaosResult
{
    /** One row per fig09FlowPlateaus() entry, in ramp order. */
    std::vector<Fig09Plateau> plateaus;

    /** Mean TX rate across all measurement windows of the ramp. */
    double tx_mpps = 0.0;

    /** Actual DDIO ways programmed in "hardware" at run end. */
    unsigned hw_ddio_ways = 0;

    /** The daemon's idea of the DDIO ways at run end. */
    unsigned intended_ddio_ways = 0;

    /**
     * Max over the plateau checkpoints of the sum over tenants and
     * DDIO of |intended ways - hardware ways|: the misallocation
     * signature. The hardened daemon retries rejected writes until
     * intent and hardware agree; the unhardened one books rejected
     * writes as done and drifts until an unrelated re-program
     * happens to repair the register.
     */
    unsigned mask_drift_ways = 0;

    /** Hardware tenant ways at run end (index = tenant), for
     *  comparing end allocations across A/B rows. */
    std::vector<unsigned> hw_tenant_ways;

    /// @name Daemon hardening counters (zero for non-IAT policies)
    /// @{
    std::uint64_t degraded_enters = 0;
    std::uint64_t degraded_exits = 0;
    std::uint64_t missed_polls = 0;
    std::uint64_t bad_samples = 0;
    std::uint64_t write_retries = 0;
    std::uint64_t write_failures = 0;
    std::uint64_t outliers_clamped = 0;
    /// @}

    /// @name Injected-fault counters (zero on fault-free runs)
    /// @{
    std::uint64_t read_faults = 0;
    std::uint64_t write_rejects = 0;
    std::uint64_t polls_dropped = 0;
    std::uint64_t link_flaps = 0;
    std::uint64_t ring_stalls = 0;
    std::uint64_t churn_events = 0;
    /// @}
};

/**
 * Run the Fig 9 flow-count ramp (the full agg_testpmd campaign)
 * under @p kind with @p plan injected -- the one ramp body behind
 * the fig09 and chaos trials. An empty plan (any() false) runs
 * fault-free with no injector built: that is the fig09 ramp. A
 * plan whose seed is 0 gets @p seed, keeping chaos trials
 * reproducible per-trial.
 */
ChaosResult chaosRunCase(core::PolicyKind kind,
                         const fault::FaultPlan &plan, bool hardening,
                         double scale, std::uint64_t seed);
/// @}

/// @name Bakeoff: every policy head-to-head, with a fairness axis
/// @{

/** One (policy, scenario, fault plan) head-to-head case. */
struct BakeoffResult
{
    /** Scenario-native delivery rate, in M items/s (packets for
     *  agg/slicing, Redis responses for corun). */
    double tput_mps = 0.0;

    /** Client-observed p99 latency over the window, microseconds. */
    double p99_us = 0.0;

    /// @name Fairness vs solo references (computeFairness())
    /// @{
    double jain = 1.0;
    double worst_slowdown = 1.0;
    std::vector<double> slowdown; ///< per measured tenant
    std::vector<double> solo_ipc;
    std::vector<double> run_ipc;
    /// @}

    /** DDIO ways programmed in "hardware" at run end. */
    unsigned hw_ddio_ways = 0;

    /// @name Injected-fault counters (zero on fault-free runs)
    /// @{
    std::uint64_t read_faults = 0;
    std::uint64_t write_rejects = 0;
    std::uint64_t polls_dropped = 0;
    /// @}
};

/**
 * Run one case: per-tenant solo-reference passes (fault-free, full
 * LLC, other contenders quiesced) plus one policy pass under
 * @p plan. An empty plan (any() false) runs the policy pass
 * fault-free with no injector built; a plan whose seed is 0 gets
 * @p seed.
 */
BakeoffResult bakeoffRunCase(core::PolicyKind kind,
                             const std::string &scenario,
                             const fault::FaultPlan &plan,
                             double scale, std::uint64_t seed);

/** Register the "bakeoff" sweep (params: scenario, policy, faults)
 *  into @p registry. */
void registerBakeoffSweeps(exp::TrialRegistry &registry);
/// @}

/**
 * Register every paper sweep ("fig03", "fig09", "fig10", plus the
 * fixed-rate "l3fwd" point probe used by smoke campaigns and the
 * "chaos" fault-injection campaign) into @p registry.
 */
void registerPaperSweeps(exp::TrialRegistry &registry);

/**
 * Register the "cluster" sweep: a sharded multi-host world
 * (cluster/world.hh) under one placement policy, reporting per-host
 * and worst remote-path p99, packet totals, migration count and
 * fabric counters. The `threads` parameter declares the world's
 * worker threads so the campaign runner can cap its own jobs.
 */
void registerClusterSweeps(exp::TrialRegistry &registry);

/**
 * Register the validation sweeps backing the fuzzer's repro files:
 * "fuzz_llc" (differential LLC trial, param `ops`), "fuzz_world"
 * (daemon world trial, param `ops` plus optional `fault.*` knobs)
 * and "fuzz_cluster" (sharded-world 1-vs-2 thread determinism,
 * param `ops` = epochs).
 * A trial throws on a mismatch, so the campaign runner records the
 * violation verbatim in the JSONL error field.
 */
void registerValidationSweeps(exp::TrialRegistry &registry);

} // namespace iat::bench

#endif // IATSIM_BENCH_SWEEPS_HH
