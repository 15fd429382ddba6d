/**
 * @file
 * Seeded scenario fuzzer: randomized differential trials against the
 * reference oracles plus live invariant checks, with automatic
 * shrinking of failures to a minimal replayable repro.
 *
 * Three trial kinds:
 *
 *  - fuzzLlcTrial(): a random cache geometry, a random CLOS / RMID /
 *    DDIO configuration, and a stream of mixed operations (batched
 *    and scalar core accesses, DMA writes and reads, invalidations,
 *    reconfiguration, DDIO toggling, private-cache bursts) driven
 *    through a DiffHarness, so the real SlicedLlc is compared verdict
 *    by verdict and periodically state by state against RefLlc.
 *
 *  - fuzzWorldTrial(): a small Platform + TenantRegistry + IatDaemon
 *    world under randomized (or spec-supplied) MSR faults, dropped
 *    polls and tenant churn, asserting the allocator's structural
 *    invariants (check/invariants.hh) after every daemon tick while a
 *    DiffHarness shadows all cache traffic.
 *
 *  - fuzzClusterTrial(): a seed-derived sharded multi-host world
 *    (cluster/world.hh) run on one worker thread and again on two,
 *    asserting the digests are bit-identical (the epoch-barrier
 *    determinism contract) plus fabric-conservation and scheduler
 *    placement invariants.
 *
 * All trials draw every decision from one xoshiro stream seeded with
 * the trial seed, and each loop iteration consumes draws independent
 * of the total iteration count, so the operation stream is
 * prefix-stable: a failure first observed at iteration k reproduces
 * in any run of >= k iterations. That makes failure monotone in the
 * iteration count, and the shrinkers exploit it with a plain binary
 * search for the exact minimal count.
 *
 * Shrunk failures serialize to an experiment spec (`sweep = fuzz_llc`,
 * `fuzz_world` or `fuzz_cluster`, `seed_mode = shared`, `ops`
 * constant), so a CI failure is replayed with
 *   iatexp run fuzz_repro_<kind>_<seed>.exp
 */

#ifndef IATSIM_CHECK_FUZZ_HH
#define IATSIM_CHECK_FUZZ_HH

#include <cstdint>
#include <string>

#include "core/policy.hh"
#include "exp/spec.hh"
#include "fault/plan.hh"

namespace iat::check {

/**
 * One differential LLC trial: @p ops loop iterations of randomized
 * operations (each iteration may issue many cache ops). Returns an
 * empty string on success, else a description of the first mismatch.
 * A non-zero @p sabotage_op deliberately corrupts the harness before
 * iteration @p sabotage_op (1-based) -- the shrinker self-test.
 */
std::string fuzzLlcTrial(std::uint64_t seed, std::uint64_t ops,
                         std::uint64_t sabotage_op = 0);

/**
 * One world trial: @p iterations policy intervals of traffic, faults
 * and churn. Fault knobs come from @p plan when given (the spec's
 * `[fault]` section), else are derived from the seed. @p policy
 * selects which controller drives the world (default: the IAT
 * daemon, checked against the full allocator invariants; other kinds
 * are checked against their own PolicyContract, with the
 * disjointness contracts relaxed while MSR write rejection is armed
 * -- a rejected write legitimately leaves a stale mask until the
 * retry path repairs it). The random op stream is identical across
 * policy kinds, so one seed exercises every policy on the same
 * inputs. Returns an empty string on success, else the first
 * violation.
 */
std::string fuzzWorldTrial(
    std::uint64_t seed, std::uint64_t iterations,
    const fault::FaultPlan *plan = nullptr,
    core::PolicyKind policy = core::PolicyKind::Iat);

/**
 * One sharded-world trial: a seed-derived multi-host cluster (2-3
 * shards, cross-shard fabric traffic, a LoadAware scheduler) run for
 * @p epochs epochs twice -- once on one worker thread, once on two --
 * comparing the full cluster digests (the bit-exactness contract of
 * DESIGN.md SS15) and checking fabric conservation and scheduler
 * placement invariants. The trial is epoch-prefix-stable: a
 * divergence first visible at epoch k reproduces in any run of >= k
 * epochs, so failures shrink like world failures do. Returns an
 * empty string on success, else the first violation.
 */
std::string fuzzClusterTrial(std::uint64_t seed,
                             std::uint64_t epochs);

/** A shrunk failure: the minimal iteration count and its violation. */
struct ShrunkFailure
{
    std::uint64_t seed = 0;
    std::uint64_t ops = 0;     ///< minimal failing iteration count
    std::string violation;     ///< the violation at the minimum
    std::string kind; ///< "fuzz_llc", "fuzz_world" or "fuzz_cluster"
    /** World trials: the policy that drove the failing world (the
     *  repro spec gets a `policy` constant when not the default). */
    core::PolicyKind policy = core::PolicyKind::Iat;
};

/**
 * Binary-search the minimal failing iteration count of a known
 * failure (@p failing_ops iterations of @p seed failed). Relies on
 * prefix-stability; see the file comment.
 */
ShrunkFailure shrinkLlcFailure(std::uint64_t seed,
                               std::uint64_t failing_ops,
                               std::uint64_t sabotage_op = 0);
ShrunkFailure shrinkWorldFailure(
    std::uint64_t seed, std::uint64_t failing_ops,
    const fault::FaultPlan *plan = nullptr,
    core::PolicyKind policy = core::PolicyKind::Iat);
ShrunkFailure shrinkClusterFailure(std::uint64_t seed,
                                   std::uint64_t failing_epochs);

/**
 * Build the replayable spec for a shrunk failure: shared seed mode,
 * the failing seed, one `ops` constant, and @p fault_pairs (the
 * originating spec's `[fault]` section, unprefixed keys) when the
 * trial ran under an explicit plan.
 */
exp::ExperimentSpec
reproSpec(const ShrunkFailure &failure,
          const std::vector<std::pair<std::string, std::string>>
              &fault_pairs = {});

/**
 * Serialize @p spec under @p dir as fuzz_repro_<sweep>_<seed>.exp
 * (creating @p dir if needed) and return the file path; throws
 * std::runtime_error when the file cannot be written.
 */
std::string writeReproFile(const std::string &dir,
                           const exp::ExperimentSpec &spec);

} // namespace iat::check

#endif // IATSIM_CHECK_FUZZ_HH
