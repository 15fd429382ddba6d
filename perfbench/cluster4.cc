/**
 * @file
 * Workload cluster4: cluster_scale's world -- 4 ShardHosts (each an
 * agg world, a fabric NIC, batch tenants and an IAT daemon) under the
 * LoadAware scheduler with 0.5 Mpps of remote traffic per host -- on
 * 2 worker threads. The only workload in which the cluster barrier
 * phases, the fabric, the scheduler and the worker threads work.
 *
 * Untraced run: build the world kSetups times (setup_s is the
 * median), run kWarmEpochs untimed, then timed legs of kLegEpochs
 * until --seconds of host time have passed. The digest and the
 * modelled metrics are taken at epoch kDigestEpochs, so they repeat
 * exactly on every run with the same seed.
 *
 * Traced run: the kDigestEpochs window untraced, then traced with
 * ClusterWorld::run called one epoch at a time and per-shard start
 * and end stamps from a periodic hook and a run-end hook on each
 * shard's engine, then a threads=1 reference whose digest must equal
 * the 2-thread digest.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/world.hh"
#include "perfbench/common.hh"

namespace perf {

namespace {

using namespace iat;

constexpr unsigned kThreads = 2;
constexpr unsigned kSetups = 5;
constexpr std::uint64_t kWarmEpochs = 10;
/** One leg: two 0.5 ms epochs, one IAT daemon interval. */
constexpr std::uint64_t kLegEpochs = 2;
/** cluster_scale's run length; two migrations land within it. */
constexpr std::uint64_t kDigestEpochs = 200;

cluster::ClusterConfig
makeConfig(std::uint64_t seed, unsigned threads)
{
    cluster::ClusterConfig cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    cfg.batch_tenants = cfg.shards;
    cfg.scheduler.policy = cluster::PlacePolicy::LoadAware;
    cfg.shard.remote_rate_pps = 0.5e6;
    cfg.shard.seed = seed;
    return cfg;
}

/** Modelled results and checks at epoch kDigestEpochs. */
struct Snapshot
{
    std::string digest;
    double tput_mpps = 0.0;
    double p99_us = 0.0;
    double jain = 1.0;
    double worst_slowdown = 1.0;
    std::uint64_t routed = 0, delivered = 0, dropped = 0, in_flight = 0;
    std::size_t migrations = 0;
};

Snapshot
snapshot(cluster::ClusterWorld &world)
{
    Snapshot s;
    s.digest = world.digest();
    std::uint64_t delivered = 0;
    std::vector<double> progress;
    for (unsigned i = 0; i < world.shardCount(); ++i) {
        auto &shard = world.shard(i);
        auto &agg = shard.world();
        delivered += agg.txPackets() + shard.remotePackets();
        std::uint64_t offered = 0;
        for (unsigned n = 0; n < agg.nicCount(); ++n) {
            offered += agg.nic(n).rxStats().rx_packets +
                       agg.nic(n).rxStats().totalDrops();
        }
        progress.push_back(
            offered ? static_cast<double>(agg.txPackets()) / offered
                    : 0.0);
    }
    s.tput_mpps = static_cast<double>(delivered) / world.now() / 1e6;
    s.p99_us = world.remoteP99() * 1e6;

    // Jain's index over the hosts' delivered share of their offered
    // local load; worst host's offered / delivered.
    double sum = 0.0, sum_sq = 0.0;
    for (const double p : progress) {
        sum += p;
        sum_sq += p * p;
        s.worst_slowdown =
            std::max(s.worst_slowdown, p > 0.0 ? 1.0 / p : 0.0);
    }
    if (sum_sq > 0.0)
        s.jain = sum * sum / (progress.size() * sum_sq);

    auto &fabric = world.fabric();
    s.routed = fabric.framesRouted();
    s.delivered = fabric.framesDelivered();
    s.dropped = fabric.framesDropped();
    for (unsigned i = 0; i < world.shardCount(); ++i)
        s.in_flight += fabric.inFlight(i);
    s.migrations = world.scheduler().migrations().size();
    return s;
}

void
checkSnapshot(Report &report, const Snapshot &s, const std::string &tag)
{
    report.check(tag + ".fabric_ledger",
                 s.routed == s.delivered + s.in_flight && s.dropped == 0,
                 "routed " + std::to_string(s.routed) + " != delivered " +
                     std::to_string(s.delivered) + " + in flight " +
                     std::to_string(s.in_flight) + " (dropped " +
                     std::to_string(s.dropped) + ")");
}

void
epochs(cluster::ClusterWorld &world, std::uint64_t n)
{
    world.run(static_cast<double>(n) * world.config().epoch_seconds);
}

double
legMs(const cluster::ClusterWorld &world)
{
    return static_cast<double>(kLegEpochs) *
           world.config().epoch_seconds * 1e3;
}

void
runUntraced(const Options &opts, Report &report)
{
    std::vector<double> setup_s;
    std::unique_ptr<cluster::ClusterWorld> world;
    for (unsigned i = 0; i < kSetups; ++i) {
        world.reset();
        const auto t0 = Clock::now();
        world = std::make_unique<cluster::ClusterWorld>(
            makeConfig(opts.seed, kThreads));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    epochs(*world, kWarmEpochs);
    Legs legs;
    double timed = 0.0;
    Snapshot snap;
    while (world->epochs() < kDigestEpochs || timed < opts.seconds) {
        const Stamp t0 = stampNow();
        epochs(*world, kLegEpochs);
        timed += legs.close(t0);
        if (world->epochs() == kDigestEpochs)
            snap = snapshot(*world);
    }
    checkSnapshot(report, snap, "cluster4");

    report.attempted = legs.wall_s.size();
    reportSpeed(report, legs, legMs(*world), ReadAt::Median);
    report.metric("setup_s", summarize(setup_s).median, "s");
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
    report.metric("sim_tput_mpps", snap.tput_mpps, "Mpps");
    report.metric("sim_p99_us", snap.p99_us, "sim-us");
    report.metric("jain", snap.jain, "1");
    report.metric("worst_slowdown", snap.worst_slowdown, "1");
    report.detail("timed_s", timed);
    report.detail("threads", world->workerThreads());
    report.detail("migrations", static_cast<double>(snap.migrations));
    report.digest("cluster4", hashHex(snap.digest));
}

/**
 * Per-shard span bookkeeping of the traced world. The caller's thread
 * writes epoch/epoch_span before each epoch; shard i's hooks touch
 * only spans[i], on whichever worker runs shard i that epoch.
 */
struct ShardStamps
{
    SpanLog *log = nullptr;
    std::int32_t epoch_span = -1;
    std::uint64_t epoch = 0;
    std::vector<std::vector<std::int32_t>> spans; ///< [shard][epoch]
};

Counters
sumCounters(cluster::ClusterWorld &world)
{
    Counters c;
    for (unsigned i = 0; i < world.shardCount(); ++i)
        c += readCounters(world.shard(i).platform());
    return c;
}

void
runTraced(const Options &opts, Report &report)
{
    const auto cfg = makeConfig(opts.seed, kThreads);

    // Untraced window, for the overhead and the digest comparison.
    Snapshot plain;
    double plain_s = 0.0;
    {
        cluster::ClusterWorld world(cfg);
        const auto t0 = Clock::now();
        epochs(world, kDigestEpochs);
        plain_s = secondsBetween(t0, Clock::now());
        plain = snapshot(world);
    }

    SpanLog log;
    ShardStamps stamps;
    stamps.log = &log;
    cluster::ClusterWorld world(cfg);
    const unsigned n = world.shardCount();
    stamps.spans.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        // Phase 0, one epoch apart: fires first in every run(epoch),
        // after the shard's own hooks due at the same time.
        sim::Engine &engine = world.shard(i).engine();
        engine.addPeriodic(
            cfg.epoch_seconds,
            [&stamps, i](double) {
                stamps.spans[i].push_back(stamps.log->begin(
                    "cluster.shard", stamps.epoch_span, stamps.epoch));
            },
            0.0);
        engine.addRunEndHook([&stamps, i](double) {
            if (!stamps.spans[i].empty())
                stamps.log->end(stamps.spans[i].back());
        });
    }
    const Counters before = sumCounters(world);
    const double sim0 = world.now();
    const auto t0 = Clock::now();
    for (std::uint64_t e = 0; e < kDigestEpochs; ++e) {
        stamps.epoch = e;
        stamps.epoch_span = log.begin("cluster.epoch", -1, e);
        epochs(world, 1);
        log.end(stamps.epoch_span);
    }
    const double traced_s = secondsBetween(t0, Clock::now());
    const Snapshot traced = snapshot(world);

    // threads=1: the reference interleaving.
    std::string reference;
    {
        cluster::ClusterWorld ref(makeConfig(opts.seed, 1));
        epochs(ref, kDigestEpochs);
        reference = ref.digest();
    }

    checkSnapshot(report, plain, "cluster4.untraced");
    checkSnapshot(report, traced, "cluster4.traced");
    report.check("cluster4.trace_digest", plain.digest == traced.digest,
                 "traced digest differs from untraced");
    report.check("cluster4.threads1_digest", reference == traced.digest,
                 "threads=1 digest differs from threads=2");
    report.digest("cluster4", hashHex(traced.digest));
    report.attempted = kDigestEpochs;

    // Barrier accounting per epoch: the parallel phase runs from the
    // first shard start to the last shard end; the rest of the epoch
    // is serial (inject, collect, heartbeats, scheduler, thread
    // spawn/join). Worker w runs shards w, w + T, ... (the i % T
    // rule of ClusterWorld::run) and idles for the parallel phase
    // minus its shards' spans.
    const auto spans = log.spans();
    const unsigned workers = world.workerThreads();
    std::vector<double> epoch_s, serial_s, idle_s, shard_s;
    double shard_total_s = 0.0;
    for (const auto &s : spans) {
        if (std::string_view(s.name) != "cluster.epoch")
            continue;
        const std::uint64_t e = s.id;
        const double ep_s = (s.end_ns - s.start_ns) * 1e-9;
        epoch_s.push_back(ep_s);
        std::int64_t first = s.end_ns, last = s.start_ns;
        std::vector<double> busy(workers, 0.0);
        for (unsigned i = 0; i < n; ++i) {
            if (e >= stamps.spans[i].size())
                continue;
            const auto &sp =
                spans[static_cast<std::size_t>(stamps.spans[i][e])];
            first = std::min(first, sp.start_ns);
            last = std::max(last, sp.end_ns);
            const double d = (sp.end_ns - sp.start_ns) * 1e-9;
            shard_s.push_back(d);
            shard_total_s += d;
            busy[i % workers] += d;
        }
        const double parallel_s = std::max<std::int64_t>(0, last - first) * 1e-9;
        serial_s.push_back(ep_s - parallel_s);
        for (const double b : busy)
            idle_s.push_back(std::max(0.0, parallel_s - b));
    }
    report.check("cluster4.shard_spans",
                 shard_s.size() == std::size_t{n} * kDigestEpochs,
                 std::to_string(shard_s.size()) + " shard spans");

    // Engine: the shards' Engine::run spans (no runnable inside them
    // is wrapped, so their whole duration is the engine's).
    const double quanta_per_epoch =
        cfg.epoch_seconds / sim::PlatformConfig{}.quantum_seconds;
    const double quanta =
        std::round(quanta_per_epoch * n * kDigestEpochs);
    report.metric("sim.engine.self_s", shard_total_s, "s");
    report.metric("sim.engine.quanta", quanta, "count");
    report.metric("sim.engine.ns_per_quantum",
                  shard_total_s / quanta * 1e9, "ns");
    std::uint64_t events = 0, rx = 0, tx = 0, drops = 0;
    for (unsigned i = 0; i < n; ++i) {
        auto &agg = world.shard(i).world();
        for (const auto &stage : agg.pipeline()->stages())
            events += stage->packetsProcessed();
        rx += agg.rxPackets();
        tx += agg.txPackets();
        drops += agg.totalDrops();
    }
    report.metric("net.pkt_events", static_cast<double>(events), "count");
    report.metric("net.rx_pkts", static_cast<double>(rx), "count");
    report.metric("net.tx_pkts", static_cast<double>(tx), "count");
    report.metric("net.drops", static_cast<double>(drops), "count");
    reportCounters(report, sumCounters(world) - before,
                   world.now() - sim0, n * cfg.shard.dram_gbps * 1e9);

    report.timing("cluster.epoch_s", summarize(epoch_s), "s");
    report.timing("cluster.shard_s", summarize(shard_s), "s");
    report.timing("cluster.serial_s", summarize(serial_s), "s");
    report.timing("cluster.worker_idle_s", summarize(idle_s), "s");
    report.metric("cluster.fabric.frames_routed",
                  static_cast<double>(traced.routed), "count");
    report.metric("cluster.fabric.frames_dropped",
                  static_cast<double>(traced.dropped), "count");
    report.metric("cluster.migrations",
                  static_cast<double>(traced.migrations), "count");

    std::uint64_t ticks = 0, shuffles = 0;
    for (unsigned i = 0; i < n; ++i) {
        ticks += world.shard(i).daemon().ticks();
        shuffles += world.shard(i).daemon().shuffles();
    }
    report.metric("core.daemon.ticks", static_cast<double>(ticks),
                  "count");
    report.metric("core.daemon.shuffles", static_cast<double>(shuffles),
                  "count");
    report.metric("trace.untraced_s", plain_s, "s");
    report.metric("trace.traced_s", traced_s, "s");
    report.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");

    if (!opts.spans_path.empty())
        report.check("spans_written", log.write(opts.spans_path),
                     "could not write " + opts.spans_path);
}

} // namespace

void
runCluster4(const Options &opts, Report &report)
{
    if (opts.trace)
        runTraced(opts, report);
    else
        runUntraced(opts, report);
}

} // namespace perf
