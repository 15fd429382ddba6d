/**
 * @file
 * Seeded scenario fuzzer driver (DESIGN.md SS12): runs differential
 * LLC trials, daemon world trials and sharded-world trials from
 * src/check/fuzz.hh, --trials of them (default 5000), optionally
 * running the FSM model checker and the shuffle-lattice check first.
 * Every run is counted: it runs all of its trials, however long they
 * take, and --trials=0 runs none.
 *
 * Every trial is replayable: trial k draws its seed from the
 * splitmix64 stream of --seed, and a failing trial is written out as
 * an experiment spec (fuzz_repro_<kind>_<seed>.exp under --out) that
 * `iatexp run <file>` replays exactly, shrunk to the minimal
 * iteration count first.
 *
 *   fuzz_sim --trials=500                    # 500 trials
 *   fuzz_sim --mode=cluster --trials=8       # sharded-world 1-vs-2
 *                                            # thread determinism
 *   fuzz_sim --fsm-check --trials=100        # model check, then fuzz
 *   fuzz_sim --exp=experiments/chaos.exp     # world trials under the
 *                                            # spec's [fault] plan
 *   fuzz_sim --mode=world --policy=lfoc      # world trials with the
 *                                            # LFOC controller in the
 *                                            # daemon's place
 *
 * Exit status: 0 when everything passed, 1 on any violation (repro
 * file written first).
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "check/fsm_check.hh"
#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "core/params.hh"
#include "core/policy.hh"
#include "exp/spec.hh"
#include "fault/plan.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace iat;
using Clock = std::chrono::steady_clock;

double
wallSeconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Run both adaptive_io_step settings of the model checker. */
bool
runFsmCheck()
{
    bool ok = true;
    for (const bool adaptive : {false, true}) {
        check::FsmCheckOptions opts;
        opts.params.adaptive_io_step = adaptive;
        const auto result = check::checkFsm(opts);
        std::printf("fsm-check adaptive=%d: %zu nodes, %zu inputs, "
                    "%zu transitions, %u/5 states, %zu violations\n",
                    int(adaptive), result.nodes, result.inputs,
                    result.transitions, result.states_reached,
                    result.violations.size());
        for (const auto &v : result.violations)
            std::printf("  VIOLATION: %s\n", v.c_str());
        ok = ok && result.ok();
    }
    const auto shuffle = check::checkShuffleLattice();
    std::printf("shuffle-lattice: %zu configs, %zu violations\n",
                shuffle.configs, shuffle.violations.size());
    for (const auto &v : shuffle.violations)
        std::printf("  VIOLATION: %s\n", v.c_str());
    return ok && shuffle.ok();
}

/** Trial kinds the fuzz loop rotates through. */
enum class TrialKind
{
    Llc,
    World,
    Cluster,
};

struct FuzzConfig
{
    std::uint64_t trials = 5000;
    std::uint64_t base_seed = 1;
    std::uint64_t llc_ops = 4000;
    std::uint64_t world_ops = 200;
    std::uint64_t cluster_epochs = 40;
    bool run_llc = true;
    bool run_world = true;
    /** Cluster trials run each world twice (1 thread, then 2) and
     *  are much heavier than the rest, so they are opt-in:
     *  --mode=cluster or --cluster. */
    bool run_cluster = false;
    std::string out_dir = "fuzz-repros";
    const fault::FaultPlan *plan = nullptr;
    std::vector<std::pair<std::string, std::string>> fault_pairs;
    /** Controller the world trials run (--policy); repros record it
     *  as a `policy` constant and replay it unchanged. */
    core::PolicyKind policy = core::PolicyKind::Iat;
};

/**
 * The fuzz loop: rotate through the enabled trial kinds (per --mode)
 * for the trial count. Returns the number of failures, each shrunk
 * and written out as a repro.
 */
unsigned
runFuzz(const FuzzConfig &cfg)
{
    std::vector<TrialKind> kinds;
    if (cfg.run_llc)
        kinds.push_back(TrialKind::Llc);
    if (cfg.run_world)
        kinds.push_back(TrialKind::World);
    if (cfg.run_cluster)
        kinds.push_back(TrialKind::Cluster);
    IAT_ASSERT(!kinds.empty(), "no trial kinds enabled");

    const auto t0 = Clock::now();
    std::uint64_t seed_state = cfg.base_seed;
    unsigned failures = 0;

    for (std::uint64_t done = 0; done < cfg.trials; ++done) {
        const std::uint64_t seed = splitmix64Next(seed_state);
        const TrialKind kind = kinds[done % kinds.size()];
        const char *name = "llc";
        std::string violation;
        check::ShrunkFailure shrunk;
        switch (kind) {
          case TrialKind::World:
            name = "world";
            violation = check::fuzzWorldTrial(
                seed, cfg.world_ops, cfg.plan, cfg.policy);
            if (!violation.empty())
                shrunk = check::shrinkWorldFailure(
                    seed, cfg.world_ops, cfg.plan, cfg.policy);
            break;
          case TrialKind::Cluster:
            name = "cluster";
            violation =
                check::fuzzClusterTrial(seed, cfg.cluster_epochs);
            if (!violation.empty())
                shrunk = check::shrinkClusterFailure(
                    seed, cfg.cluster_epochs);
            break;
          case TrialKind::Llc:
            violation = check::fuzzLlcTrial(seed, cfg.llc_ops);
            if (!violation.empty())
                shrunk = check::shrinkLlcFailure(seed, cfg.llc_ops);
            break;
        }
        if (!violation.empty()) {
            ++failures;
            std::printf("FAIL %s seed=%llu: %s\n", name,
                        static_cast<unsigned long long>(seed),
                        violation.c_str());
            const auto spec =
                check::reproSpec(shrunk, cfg.fault_pairs);
            const auto path =
                check::writeReproFile(cfg.out_dir, spec);
            std::printf("  shrunk to %llu iterations: %s\n"
                        "  repro written: %s\n",
                        static_cast<unsigned long long>(shrunk.ops),
                        shrunk.violation.c_str(), path.c_str());
        }
    }
    std::printf("fuzz: %llu trials, %u failures, %.1f s\n",
                static_cast<unsigned long long>(cfg.trials), failures,
                wallSeconds(t0));
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);

    FuzzConfig cfg;
    cfg.trials = static_cast<std::uint64_t>(
        args.getInt("trials", static_cast<std::int64_t>(cfg.trials)));
    cfg.base_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.llc_ops = static_cast<std::uint64_t>(args.getInt("ops", 4000));
    cfg.world_ops =
        static_cast<std::uint64_t>(args.getInt("world-ops", 200));
    cfg.cluster_epochs = static_cast<std::uint64_t>(
        args.getInt("cluster-epochs", 40));
    cfg.out_dir = args.getString("out", "fuzz-repros");

    const std::string mode = args.getString("mode", "all");
    if (mode == "llc") {
        cfg.run_world = false;
    } else if (mode == "world") {
        cfg.run_llc = false;
    } else if (mode == "cluster") {
        cfg.run_llc = false;
        cfg.run_world = false;
        cfg.run_cluster = true;
    } else if (mode != "all") {
        fatal("--mode expects llc, world, cluster or all, got '%s'",
              mode.c_str());
    }
    // "all" keeps cluster trials out unless asked for by flag (they
    // cost two full multi-host worlds each).
    if (args.getBool("cluster", false))
        cfg.run_cluster = true;

    const std::string policy_name = args.getString("policy", "");
    if (!policy_name.empty() &&
        !core::parsePolicyKind(policy_name, cfg.policy)) {
        fatal("--policy expects one of %s, got '%s'",
              core::policyKindLabels().c_str(), policy_name.c_str());
    }

    // --exp=<spec>: the spec (e.g. experiments/chaos.exp) lends its
    // [fault] plan to the world trials. A fuzz repro is a campaign of
    // its own and replays through iatexp.
    fault::FaultPlan plan;
    if (args.has("exp")) {
        const std::string path = args.getString("exp", "");
        const auto spec = exp::ExperimentSpec::loadFile(path);
        if (spec.sweep.rfind("fuzz_", 0) == 0)
            fatal("%s is a fuzz repro (sweep %s); replay it with "
                  "`iatexp run %s`",
                  path.c_str(), spec.sweep.c_str(), path.c_str());
        cfg.fault_pairs = spec.fault;
        plan = fault::FaultPlan::fromPairs(spec.fault, "");
        if (plan.any())
            cfg.plan = &plan;
        if (!args.has("seed"))
            cfg.base_seed = spec.seed;
    }

    const bool fsm_check = args.getBool("fsm-check", false);
    args.requireKnown();

    bool ok = true;
    if (fsm_check)
        ok = runFsmCheck();

    if (cfg.trials != 0)
        ok = runFuzz(cfg) == 0 && ok;

    return ok ? 0 : 1;
}
