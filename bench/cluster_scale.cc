/**
 * @file
 * Cluster bit-exactness check: runs the same 4-shard world once with
 * one worker thread (the reference interleaving) and once with
 * --threads workers (default: hardware concurrency), and verifies
 * the two digests are byte-identical -- the sharded world's central
 * contract (DESIGN.md SS15). Prints the digest's FNV-1a 64 hash, so
 * runs compare across commits, and each run's wall time and
 * speed-up as a report.
 *
 * Exit status: non-zero exactly when the digests differ. Wall-clock
 * speed-up depends on the host and is not gated here; perfbench's
 * cluster4 workload measures it.
 *
 *   build/bench/cluster_scale [--shards=4] [--threads=0]
 *       [--epochs=200] [--seed=1] [--quick] [--chaos]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/world.hh"
#include "util/cli.hh"
#include "util/hash.hh"

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

    args.declareKnown({"shards", "threads", "epochs", "seed", "quick",
                       "chaos"});
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

    for (unsigned t : counts) {
        const auto [par_digest, par_wall] =
            runWorld(cfg, t, epochs);
        std::printf("  threads=%u: %.2f s (%.2fx speed-up, "
                    "reported only)\n",
                    t, par_wall, ref_wall / par_wall);
        if (par_digest != ref_digest) {
            std::printf("FAIL: digests differ between threads=1 "
                        "and threads=%u -- the epoch-barrier "
                        "protocol leaked a thread-order "
                        "dependence\n",
                        t);
            return 1;
        }
    }
    std::printf("  digests identical across %zu thread counts: "
                "%016llx (%zu bytes)\n",
                counts.size() + 1,
                static_cast<unsigned long long>(fnv1a64(ref_digest)),
                ref_digest.size());
    std::printf("OK\n");
    return 0;
}
