/**
 * @file
 * Cluster chaos A/B: what the Failover scheduler buys when a host
 * dies (DESIGN.md SS16).
 *
 * Four runs of the same sharded cluster world (3 hosts, 2 batch
 * tenants first-fit packed onto host 0):
 *
 *   no-fault static     reference row, no injector;
 *   no-fault failover   Failover idles without faults -- its row
 *                       must match the static reference behaviour
 *                       (no spurious evacuations);
 *   crash static        host 0 dies mid-run; Static strands both
 *                       tenants on the dead host;
 *   crash failover      same crash, same seed; Failover detects the
 *                       missed heartbeats and evacuates every tenant
 *                       to surviving hosts within a bounded number
 *                       of epochs.
 *
 * Verdicts (exit non-zero when violated):
 *   crash failover  OK iff stranded == 0, every evacuation arrived,
 *                   and the surviving hosts' worst remote p99 stays
 *                   within --p99-bound (default 1.5x) of the
 *                   no-fault static reference;
 *   crash static    expected STRANDED (> 0) -- if Static somehow
 *                   rescues the tenants the A/B lost its contrast
 *                   and the bench fails.
 *
 *   build/bench/cluster_chaos [--quick] [--seed=N] [--epochs=240]
 *       [--crash-epoch=40] [--p99-bound=1.5] [--csv=<path>]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/sweeps.hh"
#include "cluster/world.hh"
#include "fault/cluster_plan.hh"

namespace {

using namespace iat;

struct CaseResult
{
    double worst_up_p99 = 0.0; //!< worst remote p99 on live hosts
    std::uint64_t stranded = 0;
    std::uint64_t evacuations = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t in_transit = 0;
    std::uint64_t health_transitions = 0;
    std::uint64_t fabric_dropped = 0;
    std::uint64_t crash_lost = 0;
};

CaseResult
runCase(bool faults, cluster::PlacePolicy policy,
        std::uint64_t epochs, std::uint64_t crash_epoch,
        std::uint64_t seed)
{
    cluster::ClusterConfig cfg;
    cfg.shards = 3;
    // Two tenants, both first-fit packed onto host 0: the crash
    // threatens every tenant at once, the worst case for Failover.
    cfg.batch_tenants = 2;
    cfg.scheduler.policy = policy;
    // Keep LoadAware-style rebalances out of the picture: the only
    // migrations in this bench are evacuations.
    cfg.scheduler.margin = 10.0;
    cfg.scheduler.dead_after_epochs = 6;
    cfg.scheduler.degraded_after_epochs = 3;
    cfg.shard.remote_rate_pps = 0.5e6;
    cfg.shard.seed = seed;
    if (faults) {
        cfg.fault.crash_host = 0;
        cfg.fault.crash_epoch = crash_epoch;
        cfg.fault.crash_recovery = 0; // permanent
    }

    cluster::ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);

    CaseResult r;
    const auto *inj = world.injector();
    for (unsigned s = 0; s < world.shardCount(); ++s) {
        if (inj && !inj->hostUp(s, world.epochs()))
            continue;
        r.worst_up_p99 = std::max(
            r.worst_up_p99,
            world.shard(s).hostLatency().percentile(0.99));
    }
    auto &sched = world.scheduler();
    for (std::size_t t = 0; t < sched.tenantCount(); ++t) {
        if (inj && !inj->hostUp(sched.shardOf(t), world.epochs()))
            ++r.stranded;
    }
    r.evacuations = sched.evacuations();
    r.arrivals = world.migrationArrivals();
    r.in_transit = world.migrationsInTransit();
    r.health_transitions = world.health().transitions();
    r.fabric_dropped = world.fabric().framesDropped();
    if (inj)
        r.crash_lost = inj->crashFramesLost();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double scale = bench::quickScale(args);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::uint64_t epochs = std::max<std::uint64_t>(
        80, static_cast<std::uint64_t>(
                static_cast<double>(args.getInt("epochs", 240)) *
                scale));
    std::uint64_t crash_epoch = static_cast<std::uint64_t>(
        args.getInt("crash-epoch", 40));
    // Keep the crash inside the (possibly --quick-shrunk) run with
    // enough epochs left for detection + evacuation + warmup.
    crash_epoch = std::min(crash_epoch, epochs / 3);
    const double p99_bound = args.getDouble("p99-bound", 1.5);

    args.declareKnown({"quick", "seed", "epochs", "crash-epoch",
                       "p99-bound", "csv"});
    args.warnUnknown();

    struct Case
    {
        const char *label;
        bool faults;
        cluster::PlacePolicy policy;
    };
    const Case cases[] = {
        {"no-fault static", false, cluster::PlacePolicy::Static},
        {"no-fault failover", false, cluster::PlacePolicy::Failover},
        {"crash static", true, cluster::PlacePolicy::Static},
        {"crash failover", true, cluster::PlacePolicy::Failover},
    };

    std::printf("cluster_chaos: 3 hosts, 2 tenants on host 0, "
                "crash at epoch %llu of %llu\n",
                static_cast<unsigned long long>(crash_epoch),
                static_cast<unsigned long long>(epochs));

    TablePrinter table("Cluster chaos A/B: host-0 crash, Static vs "
                       "Failover placement");
    table.setHeader({"case", "p99_us", "vs_ref", "stranded", "evac",
                     "arrived", "in_transit", "health", "lost",
                     "verdict"});

    bool failed = false;
    double reference_p99 = 0.0;
    for (const auto &c : cases) {
        const CaseResult r = runCase(c.faults, c.policy, epochs,
                                     crash_epoch, seed);
        if (!c.faults && c.policy == cluster::PlacePolicy::Static)
            reference_p99 = r.worst_up_p99;
        const double ratio = reference_p99 > 0.0
                                 ? r.worst_up_p99 / reference_p99
                                 : 1.0;

        const char *verdict = "reference";
        if (!c.faults &&
            c.policy == cluster::PlacePolicy::Failover) {
            // Failover with no faults must not invent work.
            verdict = r.evacuations == 0 ? "quiet" : "SPURIOUS";
            failed = failed || r.evacuations != 0;
        } else if (c.faults &&
                   c.policy == cluster::PlacePolicy::Static) {
            verdict = r.stranded > 0 ? "STRANDED" : "RESCUED?";
            failed = failed || r.stranded == 0;
        } else if (c.faults) {
            const bool healed = r.stranded == 0 &&
                                r.evacuations >= 2 &&
                                r.in_transit == 0 &&
                                ratio <= p99_bound;
            verdict = healed ? "OK" : "DEGRADED";
            failed = failed || !healed;
        }

        table.addRow({c.label, TablePrinter::num(
                                   r.worst_up_p99 * 1e6, 2),
                      TablePrinter::num(ratio * 100.0, 1) + "%",
                      std::to_string(r.stranded),
                      std::to_string(r.evacuations),
                      std::to_string(r.arrivals),
                      std::to_string(r.in_transit),
                      std::to_string(r.health_transitions),
                      std::to_string(r.crash_lost), verdict});
        std::printf("  %s done\n", c.label);
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    if (failed) {
        std::printf("FAIL: a chaos verdict above did not hold\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
