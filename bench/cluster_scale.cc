/**
 * @file
 * Cluster scaling + bit-exactness check: runs the same 4-shard world
 * once with one worker thread (the reference interleaving) and once
 * with --threads workers (default: hardware concurrency), and
 * verifies the two digests are byte-identical -- the sharded world's
 * central contract (DESIGN.md SS15). Prints per-run wall time and
 * the parallel speedup.
 *
 * Exit status: non-zero whenever the digests differ. The speedup
 * assertion (>= --min-speedup, default 1.5x) is enforced only when
 * the machine actually has >= 4 hardware threads; on smaller hosts
 * (CI runners are often 1-2 vCPUs) the speedup is reported but not
 * gated, because there is nothing to scale onto.
 *
 *   build/bench/cluster_scale [--shards=4] [--threads=0]
 *       [--epochs=200] [--seed=1] [--min-speedup=1.5] [--quick]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/world.hh"
#include "util/cli.hh"

namespace {

using namespace iat;
using Clock = std::chrono::steady_clock;

cluster::ClusterConfig
makeConfig(const CliArgs &args)
{
    cluster::ClusterConfig cfg;
    cfg.shards = static_cast<unsigned>(args.getInt("shards", 4));
    cfg.batch_tenants = cfg.shards; // one migratable tenant per host
    cfg.scheduler.policy = cluster::PlacePolicy::LoadAware;
    cfg.shard.remote_rate_pps = 0.5e6;
    cfg.shard.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    if (args.getBool("chaos")) {
        // Every fault class at once plus Failover evacuations: the
        // hardest determinism case -- crash losses, skipped epochs,
        // coin-flip drops, a partition, and in-flight migrations
        // must all land identically for any worker-thread count.
        cfg.scheduler.policy = cluster::PlacePolicy::Failover;
        cfg.scheduler.dead_after_epochs = 6;
        cfg.scheduler.degraded_after_epochs = 3;
        cfg.fault.crash_host = 1;
        cfg.fault.crash_epoch = 16;
        cfg.fault.crash_recovery = 60;
        cfg.fault.slow_host = 2;
        cfg.fault.slow_epoch = 8;
        cfg.fault.slow_duration = 24;
        cfg.fault.slow_factor = 3;
        cfg.fault.degrade_factor = 4.0;
        cfg.fault.degrade_epoch = 10;
        cfg.fault.degrade_duration = 30;
        cfg.fault.drop_prob = 0.2;
        cfg.fault.drop_epoch = 4;
        cfg.fault.drop_duration = 48;
        cfg.fault.partition_cut = 2;
        cfg.fault.partition_epoch = 60;
        cfg.fault.partition_duration = 20;
    }
    return cfg;
}

/** Run one world and return (digest, wall seconds). */
std::pair<std::string, double>
runWorld(const cluster::ClusterConfig &base, unsigned threads,
         std::uint64_t epochs)
{
    cluster::ClusterConfig cfg = base;
    cfg.threads = threads;
    cluster::ClusterWorld world(cfg);
    const auto t0 = Clock::now();
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);
    const auto t1 = Clock::now();
    return {world.digest(),
            std::chrono::duration<double>(t1 - t0).count()};
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const cluster::ClusterConfig cfg = makeConfig(args);

    std::uint64_t epochs =
        static_cast<std::uint64_t>(args.getInt("epochs", 200));
    if (args.getBool("quick"))
        epochs = std::max<std::uint64_t>(20, epochs / 10);

    const unsigned hw = std::thread::hardware_concurrency();
    unsigned threads =
        static_cast<unsigned>(args.getInt("threads", 0));
    if (threads == 0)
        threads = hw == 0 ? 1 : hw;
    if (threads > cfg.shards)
        threads = cfg.shards;
    const double min_speedup = args.getDouble("min-speedup", 1.5);

    args.declareKnown({"shards", "threads", "epochs", "seed",
                       "min-speedup", "quick", "chaos"});
    args.warnUnknown();

    const bool chaos = args.getBool("chaos");
    std::printf("cluster_scale: %u shards, %llu epochs, "
                "hw threads %u%s\n",
                cfg.shards,
                static_cast<unsigned long long>(epochs), hw,
                chaos ? ", chaos fault plan active" : "");

    const auto [ref_digest, ref_wall] = runWorld(cfg, 1, epochs);
    std::printf("  threads=1: %.2f s (reference)\n", ref_wall);

    // Thread counts to check against the single-thread reference.
    // Under --chaos the contract is explicitly 1/2/4 (plus whatever
    // --threads asked for): faults and migrations must not leak any
    // thread-order dependence.
    std::vector<unsigned> counts;
    if (chaos) {
        for (unsigned t : {2u, 4u}) {
            if (t <= cfg.shards)
                counts.push_back(t);
        }
    }
    if (threads > 1 &&
        std::find(counts.begin(), counts.end(), threads) ==
            counts.end())
        counts.push_back(threads);

    double speedup = 1.0;
    for (unsigned t : counts) {
        const auto [par_digest, par_wall] =
            runWorld(cfg, t, epochs);
        if (t == threads)
            speedup = ref_wall / par_wall;
        std::printf("  threads=%u: %.2f s (%.2fx)\n", t, par_wall,
                    ref_wall / par_wall);
        if (par_digest != ref_digest) {
            std::printf("FAIL: digests differ between threads=1 "
                        "and threads=%u -- the epoch-barrier "
                        "protocol leaked a thread-order "
                        "dependence\n",
                        t);
            return 1;
        }
    }
    std::printf("  digests identical across %zu thread counts "
                "(%zu bytes)\n",
                counts.size() + 1, ref_digest.size());

    // Scaling gate: only meaningful where parallelism exists. A
    // 1-2 vCPU runner still checks bit-exactness above.
    if (hw >= 4 && threads >= 2) {
        if (speedup < min_speedup) {
            std::printf("FAIL: speedup %.2fx < required %.2fx on a "
                        "%u-thread machine\n",
                        speedup, min_speedup, hw);
            return 1;
        }
        std::printf("  speedup gate passed (>= %.2fx)\n",
                    min_speedup);
    } else {
        std::printf("  speedup gate skipped (hw=%u, threads=%u)\n",
                    hw, threads);
    }
    std::printf("OK\n");
    return 0;
}
