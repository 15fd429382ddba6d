/**
 * @file
 * Sweep bodies (moved verbatim from the fig* binaries) and their
 * trial-factory registration.
 */

#include "bench/sweeps.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "check/fuzz.hh"
#include "cluster/world.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/l3fwd.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "sim/stats_report.hh"
#include "util/units.hh"

namespace iat::bench {

bool
trialFaulted(const exp::TrialContext &ctx)
{
    return ctx.getInt("faults", 1) != 0;
}

double
fig03ZeroLossRate(std::uint32_t frame_bytes, std::uint32_t ring_entries,
                  double window_scale, std::uint64_t seed)
{
    net::Rfc2544Config search;
    search.min_rate_pps = 5e4;
    search.max_rate_pps = net::lineRatePps40G(frame_bytes);
    search.resolution = 0.03;

    const auto trial = [&](double rate) {
        sim::PlatformConfig pc;
        pc.num_cores = 2;
        sim::Platform platform(pc);
        sim::Engine engine(platform);

        scenarios::L3FwdConfig cfg;
        cfg.frame_bytes = frame_bytes;
        cfg.ring_entries = ring_entries;
        cfg.rate_pps = rate;
        cfg.seed = seed;
        scenarios::L3FwdWorld world(platform, cfg);
        world.attach(engine);
        scenarios::applyStaticLayout(platform.pqos(),
                                     world.registry());
        return world.trialWindow(engine, 0.01 * window_scale,
                                 0.04 * window_scale);
    };
    return net::rfc2544Search(trial, search);
}

const std::vector<std::uint64_t> &
fig09FlowPlateaus()
{
    static const std::vector<std::uint64_t> plateaus = {
        1, 100, 1000, 10000, 100000, 1000000};
    return plateaus;
}

Fig10Result
fig10RunCase(core::PolicyKind kind, std::uint32_t frame_bytes,
             double scale, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::SlicingPmdXmemConfig cfg;
    cfg.frame_bytes = frame_bytes;
    cfg.seed = seed;
    scenarios::SlicingPmdXmemWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    const auto policy =
        core::makePolicy(kind, platform.pqos(), world.registry(),
                         params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);

    const double t1 = 0.06 * scale;
    const double t2 = 0.20 * scale;
    engine.at(t1, [&](double) { world.growXmem4(10 * MiB); });
    engine.at(t2, [&](double) {
        platform.pqos().ddioSetWays(cache::WayMask::fromRange(7, 4));
    });

    Fig10Result result;
    // Phase 1 window: settled after T1.
    engine.run(t1 + 0.06 * scale);
    world.xmem(2).resetStats();
    engine.run(0.06 * scale);
    result.after_t1.tput_mbps =
        world.xmem(2).avgThroughputBytesPerSec() / 1e6;
    result.after_t1.lat_ns =
        world.xmem(2).avgLatencySeconds() * 1e9;

    // Phase 2 window: settled after T2.
    engine.run(t2 + 0.06 * scale - platform.now());
    world.xmem(2).resetStats();
    engine.run(0.06 * scale);
    result.after_t2.tput_mbps =
        world.xmem(2).avgThroughputBytesPerSec() / 1e6;
    result.after_t2.lat_ns =
        world.xmem(2).avgLatencySeconds() * 1e9;

    const auto snap = sim::PlatformSnapshot::capture(platform);
    result.ddio_hits = snap.ddio_hits;
    result.ddio_misses = snap.ddio_misses;
    result.dram_read_bytes = snap.dram_read_bytes;
    result.dram_write_bytes = snap.dram_write_bytes;
    return result;
}

ChaosResult
chaosRunCase(core::PolicyKind kind, const fault::FaultPlan &plan,
             bool hardening, double scale, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = 64;
    cfg.flows = 1;
    cfg.seed = seed;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;

    fault::FaultPlan effective = plan;
    if (effective.seed == 0)
        effective.seed = seed;
    std::unique_ptr<fault::FaultInjector> injector;
    if (effective.any())
        injector = std::make_unique<fault::FaultInjector>(effective);

    const auto policy =
        core::makePolicy(kind, platform.pqos(), world.registry(),
                         params, world.model(), nullptr, hardening);
    fault::attachPolicy(engine, *policy, params.interval_seconds,
                        injector.get());
    core::IatDaemon *daemon = policy->daemon();
    if (injector) {
        for (unsigned i = 0; i < world.nicCount(); ++i)
            injector->addNic(world.nic(i));
        injector->setRegistry(&world.registry());
        injector->arm(engine, platform);
    }

    // Intent-vs-hardware drift, sampled at plateau checkpoints: a
    // mid-run divergence repaired later is still a misallocation the
    // unhardened daemon never noticed.
    const auto sampleDrift = [&]() -> unsigned {
        if (!daemon)
            return 0;
        const auto &d = *daemon;
        unsigned drift = static_cast<unsigned>(
            std::abs(static_cast<int>(d.ddioWays()) -
                     static_cast<int>(
                         platform.pqos().ddioGetWays().count())));
        // Churn can leave the allocator and registry briefly out of
        // sync (resolved at the daemon's next Get Tenant Info).
        const std::size_t tenants = std::min(
            world.registry().size(), d.allocator().tenantCount());
        for (std::size_t t = 0; t < tenants; ++t) {
            const int intent =
                static_cast<int>(d.allocator().tenantWays(t));
            const int hw = static_cast<int>(
                platform.pqos()
                    .l3caGet(static_cast<cache::ClosId>(t + 1))
                    .count());
            drift += static_cast<unsigned>(std::abs(intent - hw));
        }
        return drift;
    };

    ChaosResult r;
    double tx_total = 0.0;
    double window_total = 0.0;
    for (const auto flows : fig09FlowPlateaus()) {
        world.setFlows(flows);
        engine.run(0.05 * scale); // settle at the new population
        world.resetStats();
        const auto before = sim::PlatformSnapshot::capture(platform);
        const double window = 0.03 * scale;
        engine.run(window);
        const auto ovs = sim::PlatformSnapshot::capture(platform)
                             .since(before)
                             .sumCores(world.ovsCores());
        const std::uint64_t tx = world.txPackets();

        Fig09Plateau row;
        row.flows = flows;
        row.ovs_llc_miss_mps = ovs.llc_misses / window / 1e6;
        row.ovs_ipc = ipc(ovs);
        row.tx_mpps = tx / window / 1e6;
        row.ovs_ways = daemon != nullptr
                           ? daemon->allocator().tenantWays(0)
                           : platform.pqos().l3caGet(1).count();
        r.plateaus.push_back(row);

        tx_total += static_cast<double>(tx);
        window_total += window;
        r.mask_drift_ways =
            std::max(r.mask_drift_ways, sampleDrift());
    }

    r.tx_mpps = tx_total / window_total / 1e6;
    r.hw_ddio_ways = platform.pqos().ddioGetWays().count();
    for (std::size_t t = 0; t < world.registry().size(); ++t) {
        r.hw_tenant_ways.push_back(
            platform.pqos()
                .l3caGet(static_cast<cache::ClosId>(t + 1))
                .count());
    }
    if (daemon) {
        const auto &d = *daemon;
        r.intended_ddio_ways = d.ddioWays();
        r.degraded_enters = d.degradedEnters();
        r.degraded_exits = d.degradedExits();
        r.missed_polls = d.missedPolls();
        r.bad_samples = d.badSamples();
        r.write_retries = d.writeRetries();
        r.write_failures = d.writeFailures();
        r.outliers_clamped = daemon->monitor().outliersClamped();
    }
    if (injector) {
        r.read_faults = injector->readFaults();
        r.write_rejects = injector->writeRejects();
        r.polls_dropped = injector->pollsDropped();
        r.link_flaps = injector->linkFlaps();
        r.ring_stalls = injector->ringStalls();
        r.churn_events = injector->churnEvents();
    }
    return r;
}

namespace {

core::PolicyKind
policyParam(const exp::TrialContext &ctx)
{
    const std::string name = ctx.requireString("policy");
    core::PolicyKind kind;
    if (!core::parsePolicyKind(name, kind))
        throw std::runtime_error("unknown policy '" + name + "'");
    return kind;
}

exp::TrialResult
fig03Trial(const exp::TrialContext &ctx)
{
    const auto frame =
        static_cast<std::uint32_t>(ctx.requireInt("frame_bytes"));
    const auto ring =
        static_cast<std::uint32_t>(ctx.requireInt("ring_entries"));
    const double rate =
        fig03ZeroLossRate(frame, ring, ctx.scale, ctx.seed);
    exp::TrialResult result;
    result.add("zero_loss_pps", rate);
    result.add("zero_loss_mpps", rate / 1e6);
    return result;
}

exp::TrialResult
fig09Trial(const exp::TrialContext &ctx)
{
    const auto run = chaosRunCase(policyParam(ctx), fault::FaultPlan{},
                                  true, ctx.scale, ctx.seed);
    exp::TrialResult result;
    for (const auto &row : run.plateaus) {
        const std::string prefix =
            "flows_" + std::to_string(row.flows) + ".";
        result.add(prefix + "ovs_llc_miss_mps", row.ovs_llc_miss_mps);
        result.add(prefix + "ovs_ipc", row.ovs_ipc);
        result.add(prefix + "ovs_ways", row.ovs_ways);
        result.add(prefix + "tx_mpps", row.tx_mpps);
    }
    return result;
}

exp::TrialResult
fig10Trial(const exp::TrialContext &ctx)
{
    const auto frame =
        static_cast<std::uint32_t>(ctx.requireInt("frame_bytes"));
    const auto r =
        fig10RunCase(policyParam(ctx), frame, ctx.scale, ctx.seed);
    exp::TrialResult result;
    result.add("tput_mbps_after_t1", r.after_t1.tput_mbps);
    result.add("lat_ns_after_t1", r.after_t1.lat_ns);
    result.add("tput_mbps_after_t2", r.after_t2.tput_mbps);
    result.add("lat_ns_after_t2", r.after_t2.lat_ns);
    result.add("ddio_hits", static_cast<double>(r.ddio_hits));
    result.add("ddio_misses", static_cast<double>(r.ddio_misses));
    result.add("dram_read_bytes",
               static_cast<double>(r.dram_read_bytes));
    result.add("dram_write_bytes",
               static_cast<double>(r.dram_write_bytes));
    return result;
}

/**
 * Fixed-rate l3fwd point probe: one constant-rate trial window, no
 * RFC 2544 search. Cheap enough for smoke campaigns and CI, and
 * useful on its own to sample the Fig 3 surface at a known rate.
 */
exp::TrialResult
l3fwdTrial(const exp::TrialContext &ctx)
{
    sim::PlatformConfig pc;
    pc.num_cores = 2;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::L3FwdConfig cfg;
    cfg.frame_bytes =
        static_cast<std::uint32_t>(ctx.getInt("frame_bytes", 64));
    cfg.ring_entries =
        static_cast<std::uint32_t>(ctx.getInt("ring_entries", 1024));
    cfg.rate_pps = ctx.requireDouble("rate_mpps") * 1e6;
    cfg.flows = static_cast<std::uint64_t>(
        ctx.getInt("flows", 1'000'000));
    cfg.seed = ctx.seed;
    scenarios::L3FwdWorld world(platform, cfg);
    world.attach(engine);
    scenarios::applyStaticLayout(platform.pqos(), world.registry());
    const auto trial = world.trialWindow(engine, 0.01 * ctx.scale,
                                         0.04 * ctx.scale);

    exp::TrialResult result;
    result.add("offered", static_cast<double>(trial.offered));
    result.add("delivered", static_cast<double>(trial.delivered));
    result.add("dropped", static_cast<double>(trial.dropped));
    result.add("drop_rate",
               trial.offered
                   ? static_cast<double>(trial.dropped) /
                         static_cast<double>(trial.offered)
                   : 0.0);
    return result;
}

/**
 * Chaos trial: the fig09 ramp under the spec's `[fault]` plan (see
 * trialFaulted()). The `hardening` parameter (default on) is the
 * A/B kill switch; the `policy` parameter defaults to the full
 * daemon, the subject of the hardening work.
 */
exp::TrialResult
chaosTrial(const exp::TrialContext &ctx)
{
    const auto plan = trialFaulted(ctx)
                          ? fault::FaultPlan::fromPairs(ctx.params)
                          : fault::FaultPlan{};
    const bool hardening = ctx.getBool("hardening", true);
    const auto kind = ctx.find("policy") != nullptr
                          ? policyParam(ctx)
                          : core::PolicyKind::Iat;
    const auto r =
        chaosRunCase(kind, plan, hardening, ctx.scale, ctx.seed);

    exp::TrialResult result;
    result.add("tx_mpps", r.tx_mpps);
    result.add("hw_ddio_ways", r.hw_ddio_ways);
    result.add("intended_ddio_ways", r.intended_ddio_ways);
    result.add("mask_drift_ways", r.mask_drift_ways);
    result.add("degraded_enters",
               static_cast<double>(r.degraded_enters));
    result.add("degraded_exits",
               static_cast<double>(r.degraded_exits));
    result.add("missed_polls", static_cast<double>(r.missed_polls));
    result.add("bad_samples", static_cast<double>(r.bad_samples));
    result.add("write_retries",
               static_cast<double>(r.write_retries));
    result.add("write_failures",
               static_cast<double>(r.write_failures));
    result.add("outliers_clamped",
               static_cast<double>(r.outliers_clamped));
    result.add("read_faults", static_cast<double>(r.read_faults));
    result.add("write_rejects",
               static_cast<double>(r.write_rejects));
    result.add("polls_dropped",
               static_cast<double>(r.polls_dropped));
    result.add("link_flaps", static_cast<double>(r.link_flaps));
    result.add("ring_stalls", static_cast<double>(r.ring_stalls));
    result.add("churn_events", static_cast<double>(r.churn_events));
    return result;
}

/**
 * Cluster trial: a sharded multi-host world (cluster/world.hh) under
 * one placement policy and the spec's cluster `[fault]` plan (see
 * trialFaulted()). The `threads` parameter is the world's
 * worker-thread count -- declared as a param so the campaign runner
 * caps its own job count (jobs x threads <= machine) and the record
 * carries it. Every metric is a simulation counter, so records stay
 * bit-identical across --jobs and across `threads` (the epoch-barrier
 * determinism contract).
 */
exp::TrialResult
clusterTrial(const exp::TrialContext &ctx)
{
    cluster::ClusterConfig cfg;
    cfg.shards =
        static_cast<unsigned>(ctx.getInt("shards", 2));
    cfg.threads =
        static_cast<unsigned>(ctx.getInt("threads", 1));
    cfg.batch_tenants =
        static_cast<unsigned>(ctx.getInt("batch_tenants", 2));
    const std::string policy = ctx.getString("policy", "static");
    if (!cluster::parsePlacePolicy(policy, cfg.scheduler.policy))
        throw std::runtime_error("unknown placement policy '" +
                                 policy + "'");
    // A genuine both-tenants-on-one-host imbalance shows a sustained
    // load spread around 0.45; single-epoch gauge transients reach
    // about 0.1 through the EWMA. The margin sits between the two.
    cfg.scheduler.margin = ctx.getDouble("margin", 0.20);
    // The cooldown must outlast the world's load-EWMA settle time
    // (about five epochs at alpha 0.2) or the scheduler acts on
    // stale load and ping-pongs tenants between hosts.
    cfg.scheduler.cooldown_epochs =
        static_cast<std::uint64_t>(ctx.getInt("cooldown", 12));
    cfg.scheduler.dead_after_epochs =
        static_cast<std::uint64_t>(ctx.getInt("dead_after", 8));
    cfg.scheduler.degraded_after_epochs = static_cast<std::uint64_t>(
        ctx.getInt("degraded_after", 4));
    cfg.migration_epochs =
        static_cast<std::uint64_t>(ctx.getInt("migration_epochs", 4));
    cfg.migration_frames = static_cast<unsigned>(
        ctx.getInt("migration_frames", 64));
    if (trialFaulted(ctx))
        cfg.fault = fault::ClusterFaultPlan::fromPairs(ctx.params);
    cfg.shard.rate_pps = ctx.getDouble("rate_mpps", 1.5) * 1e6;
    cfg.shard.remote_rate_pps =
        ctx.getDouble("remote_rate_mpps", 0.5) * 1e6;
    // Batch tenants must stream from DRAM for placement to matter:
    // the default working set exceeds the whole LLC, so their
    // bandwidth shows up as dram.utilization wherever they land.
    cfg.shard.batch_ws_bytes =
        static_cast<std::uint64_t>(ctx.getInt("batch_ws_mib", 48))
        << 20;
    cfg.shard.seed = ctx.seed;

    const auto epochs = std::max<std::int64_t>(
        20, static_cast<std::int64_t>(
                static_cast<double>(ctx.getInt("epochs", 400)) *
                ctx.scale));
    cluster::ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);

    exp::TrialResult result;
    std::uint64_t tx = 0, rx = 0, drops = 0, remote = 0;
    for (unsigned s = 0; s < world.shardCount(); ++s) {
        auto &shard = world.shard(s);
        tx += shard.world().txPackets();
        rx += shard.world().rxPackets();
        drops += shard.world().totalDrops();
        remote += shard.remotePackets();
        const std::string host = "host" + std::to_string(s);
        result.add(host + ".remote_p99_us",
                   shard.hostLatency().percentile(0.99) * 1e6);
        result.add(host + ".remote_mean_us",
                   shard.hostLatency().mean() * 1e6);
        result.add(host + ".e2e_p99_us",
                   shard.remoteLatency().percentile(0.99) * 1e6);
        result.add(host + ".dram_util",
                   shard.gauge("dram.utilization"));
    }
    result.add("remote_p99_us_worst", world.remoteP99() * 1e6);
    result.add("tx_packets", static_cast<double>(tx));
    result.add("rx_packets", static_cast<double>(rx));
    result.add("drops", static_cast<double>(drops));
    result.add("remote_packets", static_cast<double>(remote));
    result.add("migrations",
               static_cast<double>(
                   world.scheduler().migrations().size()));
    result.add("fabric_routed",
               static_cast<double>(world.fabric().framesRouted()));
    result.add("fabric_delivered",
               static_cast<double>(
                   world.fabric().framesDelivered()));
    result.add("fabric_dropped",
               static_cast<double>(world.fabric().framesDropped()));
    result.add("evacuations",
               static_cast<double>(
                   world.scheduler().evacuations()));
    result.add("partition_backoffs",
               static_cast<double>(
                   world.scheduler().partitionBackoffs()));
    result.add("migration_arrivals",
               static_cast<double>(world.migrationArrivals()));
    result.add("health_transitions",
               static_cast<double>(world.health().transitions()));
    if (const auto *inj = world.injector()) {
        result.add("frames_dropped_random",
                   static_cast<double>(inj->framesDroppedRandom()));
        result.add("frames_dropped_partition",
                   static_cast<double>(
                       inj->framesDroppedPartition()));
        result.add("crash_frames_lost",
                   static_cast<double>(inj->crashFramesLost()));
        result.add("host_epochs_skipped",
                   static_cast<double>(inj->hostEpochsSkipped()));
        // Stranded tenants: still placed on a host that is down at
        // run end -- the number Failover exists to drive to zero.
        std::uint64_t stranded = 0;
        double survivors_p99 = 0.0;
        for (unsigned s = 0; s < world.shardCount(); ++s) {
            if (inj->hostUp(s, world.epochs())) {
                survivors_p99 = std::max(
                    survivors_p99,
                    world.shard(s).hostLatency().percentile(0.99));
            }
        }
        auto &sched = world.scheduler();
        for (std::size_t t = 0; t < sched.tenantCount(); ++t) {
            if (!inj->hostUp(sched.shardOf(t), world.epochs()))
                ++stranded;
        }
        result.add("stranded_tenants",
                   static_cast<double>(stranded));
        result.add("survivors_p99_us", survivors_p99 * 1e6);
    }
    return result;
}

} // namespace

void
registerClusterSweeps(exp::TrialRegistry &registry)
{
    registry.add("cluster",
                 "sharded multi-host world; params policy "
                 "(static|load|failover), shards, threads, "
                 "batch_tenants, epochs, margin, dead_after, "
                 "rate_mpps, remote_rate_mpps, batch_ws_mib, faults "
                 "+ cluster fault.* knobs (crash_host, drop_prob, "
                 "partition_cut, ...)",
                 clusterTrial);
}

void
registerPaperSweeps(exp::TrialRegistry &registry)
{
    registry.add("fig03",
                 "Fig 3: l3fwd RFC2544 zero-loss rate; axes "
                 "frame_bytes, ring_entries",
                 fig03Trial);
    registry.add("fig09",
                 "Fig 9: OVS flow-count ramp; axis policy "
                 "(baseline|core-only|io-iso|iat|iat-noddio)",
                 fig09Trial);
    registry.add("fig10",
                 "Fig 10: shuffle cure, scripted phases; axes "
                 "frame_bytes, policy",
                 fig10Trial);
    registry.add("l3fwd",
                 "fixed-rate l3fwd point probe; params frame_bytes, "
                 "ring_entries, rate_mpps, flows",
                 l3fwdTrial);
    registry.add("chaos",
                 "Fig 9 agg_testpmd ramp under a [fault] plan; "
                 "params policy, hardening, faults + fault.* knobs",
                 chaosTrial);
}

namespace {

/** One differential LLC fuzz trial; throws on mismatch. */
exp::TrialResult
fuzzLlcSweepTrial(const exp::TrialContext &ctx)
{
    const auto ops =
        static_cast<std::uint64_t>(ctx.getInt("ops", 4000));
    const auto violation = check::fuzzLlcTrial(ctx.seed, ops);
    if (!violation.empty())
        throw std::runtime_error(violation);
    exp::TrialResult result;
    result.add("ops", static_cast<double>(ops));
    return result;
}

/** One world fuzz trial under the spec's [fault] plan, if any (see
 *  trialFaulted()). The optional `policy` constant (written by
 *  repro files shrunk under --policy) selects which controller the
 *  world runs. */
exp::TrialResult
fuzzWorldSweepTrial(const exp::TrialContext &ctx)
{
    const auto ops =
        static_cast<std::uint64_t>(ctx.getInt("ops", 200));
    const auto plan = trialFaulted(ctx)
                          ? fault::FaultPlan::fromPairs(ctx.params)
                          : fault::FaultPlan{};
    core::PolicyKind kind = core::PolicyKind::Iat;
    if (const auto *name = ctx.find("policy")) {
        if (!core::parsePolicyKind(*name, kind))
            throw std::runtime_error("unknown policy '" + *name +
                                     "'");
    }
    const auto violation = check::fuzzWorldTrial(
        ctx.seed, ops, plan.any() ? &plan : nullptr, kind);
    if (!violation.empty())
        throw std::runtime_error(violation);
    exp::TrialResult result;
    result.add("ops", static_cast<double>(ops));
    return result;
}

/** One exact-vs-approx acceptance-band trial; throws off band. */
exp::TrialResult
fuzzApproxSweepTrial(const exp::TrialContext &ctx)
{
    const auto ops =
        static_cast<std::uint64_t>(ctx.getInt("ops", 1500));
    const auto k =
        static_cast<unsigned>(ctx.getInt("approx_k", 0));
    const auto violation = check::fuzzApproxTrial(ctx.seed, ops, k);
    if (!violation.empty())
        throw std::runtime_error(violation);
    exp::TrialResult result;
    result.add("ops", static_cast<double>(ops));
    return result;
}

/** One sharded-world determinism trial; throws on divergence. */
exp::TrialResult
fuzzClusterSweepTrial(const exp::TrialContext &ctx)
{
    const auto ops =
        static_cast<std::uint64_t>(ctx.getInt("ops", 40));
    const auto violation = check::fuzzClusterTrial(ctx.seed, ops);
    if (!violation.empty())
        throw std::runtime_error(violation);
    exp::TrialResult result;
    result.add("ops", static_cast<double>(ops));
    return result;
}

} // namespace

void
registerValidationSweeps(exp::TrialRegistry &registry)
{
    registry.add("fuzz_llc",
                 "differential LLC fuzz trial vs the reference "
                 "oracle; param ops",
                 fuzzLlcSweepTrial);
    registry.add("fuzz_world",
                 "policy world fuzz trial (invariants + oracle); "
                 "param ops, optional policy, faults + fault.* "
                 "knobs",
                 fuzzWorldSweepTrial);
    registry.add("fuzz_approx",
                 "exact-vs-approx LLC acceptance-band trial; params "
                 "ops, approx_k (0 = seed-derived)",
                 fuzzApproxSweepTrial);
    registry.add("fuzz_cluster",
                 "sharded-world 1-vs-2 thread determinism trial; "
                 "param ops (epochs)",
                 fuzzClusterSweepTrial);
}

} // namespace iat::bench
