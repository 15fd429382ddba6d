/**
 * @file
 * Per-figure sweep bodies, factored out of the bench binaries so the
 * same code runs two ways:
 *
 *  - the original fig* binaries call the body directly and print the
 *    paper-shaped table (they are now thin wrappers), and
 *  - registerPaperSweeps() exposes each body as an exp::TrialRegistry
 *    factory, so iatexp can run whole campaigns of them in parallel
 *    from the declarative specs under experiments/.
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

/// @name Fig 3: l3fwd RFC 2544 zero-loss throughput vs Rx ring size
/// @{

/** Binary-search the zero-loss rate (pps) for one (frame, ring). */
double fig03ZeroLossRate(std::uint32_t frame_bytes,
                         std::uint32_t ring_entries,
                         double window_scale, std::uint64_t seed);
/// @}

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
 * the fig09 and chaos trials and binaries. An empty plan (any()
 * false) runs fault-free with no injector built: that is the fig09
 * ramp. A plan whose seed is 0 gets @p seed, keeping chaos trials
 * reproducible per-trial.
 */
ChaosResult chaosRunCase(core::PolicyKind kind,
                         const fault::FaultPlan &plan, bool hardening,
                         double scale, std::uint64_t seed);
/// @}

/// @name Fig 10: the shuffle cure under the scripted phases
/// @{

/** Container-4 X-Mem numbers in one settled window. */
struct Fig10Phase
{
    double tput_mbps = 0.0;
    double lat_ns = 0.0;
};

/** One (policy, frame size) case of Fig 10. */
struct Fig10Result
{
    Fig10Phase after_t1; ///< settled after the working-set jump
    Fig10Phase after_t2; ///< settled after the DDIO widening
    /// End-of-run platform counters (the telemetry-gauge surface).
    std::uint64_t ddio_hits = 0;
    std::uint64_t ddio_misses = 0;
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
};

/**
 * Run one case under @p kind as given -- pass
 * core::PolicyKind::IatNoDdio explicitly for the paper's footnote-3
 * ablation (the fig10 binary does; the spec's policy axis lists
 * iat-noddio).
 */
Fig10Result fig10RunCase(core::PolicyKind kind,
                         std::uint32_t frame_bytes, double scale,
                         std::uint64_t seed);
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

/** Scenario keys the bakeoff runs over, in table order:
 *  "agg", "slicing", "corun". */
const std::vector<std::string> &bakeoffScenarios();

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
