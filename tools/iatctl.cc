/**
 * @file
 * iatctl -- command-line front end to the model, in the spirit of
 * the pqos utility the paper's artifact extends.
 *
 * Subcommands:
 *
 *   iatctl run [--scenario=agg|slicing|corun] [--policy=...]
 *          [--seconds=0.2] [--frame=1500] [--tenants=<file>]
 *       Build one of the canonical experiment worlds, run it under
 *       the chosen policy and print a per-interval report plus a
 *       final summary. With --tenants, agg/slicing worlds are
 *       replaced by a bare platform driven by the affiliation file
 *       (cores/priorities/io flags), with synthetic DDIO traffic.
 *
 *   iatctl fsm <miss_rate,d_miss,d_hit,d_refs> ...
 *       Feed a sequence of poll observations straight into the
 *       Mealy machine and print the state trajectory -- handy for
 *       reasoning about Fig 6 by hand.
 *
 *   iatctl params
 *       Print the Table II defaults.
 *
 *   iatctl cluster [--shards=2] [--threads=1] [--seconds=0.2] ...
 *       Build the sharded multi-host world (DESIGN.md SS15), run it
 *       and print per-host remote-path latency, DRAM pressure and
 *       the migration log. --tcp additionally streams every host's
 *       records through a loopback TcpPublisher into one
 *       TcpCollector and reports the round-trip line count.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/world.hh"
#include "core/daemon.hh"
#include "core/policy.hh"
#include "obs/stream/exporter.hh"
#include "obs/stream/tcp_pub.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "obs/telemetry.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/corun.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "sim/stats_report.hh"
#include "sim/telemetry.hh"
#include "svc/client.hh"
#include "util/cli.hh"

namespace {

using namespace iat;

int
cmdParams()
{
    const core::IatParams p;
    std::printf("THRESHOLD_STABLE     %.0f%%\n",
                p.threshold_stable * 100);
    std::printf("THRESHOLD_MISS_LOW   %.0f/s\n",
                p.threshold_miss_low_per_s);
    std::printf("THRESHOLD_MISS_DROP  %.0f%%\n",
                p.threshold_miss_drop * 100);
    std::printf("DDIO_WAYS_MIN/MAX    %u/%u\n", p.ddio_ways_min,
                p.ddio_ways_max);
    std::printf("interval             %.3fs\n", p.interval_seconds);
    return 0;
}

int
cmdFsm(const std::vector<std::string> &steps)
{
    core::IatParams params;
    core::IatFsm fsm(params);
    std::printf("start: %s\n", toString(fsm.state()));
    unsigned ways = 2;
    for (const auto &step : steps) {
        core::FsmInputs in;
        if (std::sscanf(step.c_str(), "%lf,%lf,%lf,%lf",
                        &in.ddio_miss_rate, &in.d_ddio_misses,
                        &in.d_ddio_hits, &in.d_llc_refs) != 4) {
            fatal("fsm step must be miss_rate,d_miss,d_hit,d_refs "
                  "(got '%s')", step.c_str());
        }
        in.ddio_ways = ways;
        const auto state = fsm.advance(in);
        // Mirror the daemon's way bookkeeping so applyBounds sees
        // plausible counts.
        if (state == core::IatState::IoDemand &&
            ways < params.ddio_ways_max) {
            ++ways;
        } else if (state == core::IatState::Reclaim &&
                   ways > params.ddio_ways_min) {
            --ways;
        }
        fsm.applyBounds(ways);
        std::printf("%-40s -> %-10s (ddio_ways=%u)\n", step.c_str(),
                    toString(fsm.state()), ways);
    }
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    const std::string scenario = args.getString("scenario", "agg");
    const std::string policy_name = args.getString("policy", "iat");
    const double seconds = args.getDouble("seconds", 0.2);
    const auto frame = static_cast<std::uint32_t>(
        args.getInt("frame", 1500));
    const std::string tenant_file = args.getString("tenants", "");
    const std::string app = args.getString("app", "mcf");
    const bool stats = args.getBool("stats");
    const bool hardening = !args.getBool("no-hardening");
    core::IatParams params;
    params.interval_seconds = args.getDouble("interval", 5e-3);
    // Fault injection: the --fault-* flag family (README has the
    // table). No flags -> no injector, zero overhead.
    fault::FaultPlan fault_plan = fault::FaultPlan::fromCli(args);
    if (fault_plan.seed == 0)
        fault_plan.seed = 1; // CLI runs have no trial seed to defer to
    args.requireKnown();

    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    // Observability: --trace / --metrics / --sample-interval.
    auto telemetry = obs::makeTelemetry(args);
    engine.attachTelemetry(telemetry.get());

    std::unique_ptr<fault::FaultInjector> injector;
    if (fault_plan.any()) {
        injector = std::make_unique<fault::FaultInjector>(
            fault_plan, telemetry.get());
    }

    // Assemble the world.
    std::unique_ptr<scenarios::World> world;
    core::TenantRegistry file_registry;
    core::TenantRegistry *registry = &file_registry;

    if (!tenant_file.empty()) {
        file_registry.loadFromFile(tenant_file);
    } else if (scenario == "agg") {
        scenarios::AggTestPmdConfig cfg;
        cfg.frame_bytes = frame;
        world = std::make_unique<scenarios::AggTestPmdWorld>(platform,
                                                             cfg);
    } else if (scenario == "slicing") {
        scenarios::SlicingPmdXmemConfig cfg;
        cfg.frame_bytes = frame;
        world = std::make_unique<scenarios::SlicingPmdXmemWorld>(
            platform, cfg);
    } else if (scenario == "corun") {
        scenarios::CorunConfig cfg;
        cfg.pc_app = app;
        world = std::make_unique<scenarios::CorunWorld>(platform, cfg);
    } else {
        fatal("unknown scenario '%s' (agg|slicing|corun)",
              scenario.c_str());
    }
    if (world) {
        world->attach(engine);
        registry = &world->registry();
    }

    // Attach the policy.
    core::PolicyKind kind;
    if (!core::parsePolicyKind(policy_name, kind)) {
        fatal("unknown policy '%s' (%s)", policy_name.c_str(),
              core::policyKindLabels().c_str());
    }
    const auto policy =
        core::makePolicy(kind, platform.pqos(), *registry, params,
                         world ? world->model()
                               : core::TenantModel::Slicing,
                         telemetry.get(), hardening);
    fault::attachPolicy(engine, *policy, params.interval_seconds,
                        injector.get());
    core::IatDaemon *daemon = policy->daemon();

    // Arm faults AFTER the policy attach so the daemon's t=0 setup
    // tick runs before any MSR hook installs (the arm() contract).
    if (injector) {
        for (unsigned i = 0; world && i < world->nicCount(); ++i)
            injector->addNic(world->nic(i));
        injector->setRegistry(registry);
        injector->arm(engine, platform);
    }

    // Net-layer telemetry from the world's pipeline.
    if (telemetry) {
        if (world)
            world->pipeline()->setTelemetry(telemetry.get());
        // Platform gauges + sampler go in last so the first sample
        // sees every registered metric; defaults to the daemon poll
        // interval.
        sim::installPlatformSampler(engine, platform, *telemetry,
                                    params.interval_seconds);
    }

    // Synthetic traffic for tenant-file runs (no world attached).
    std::uint64_t synth_lines = 2000;
    if (!tenant_file.empty()) {
        engine.addPeriodic(params.interval_seconds, [&](double) {
            for (std::uint64_t i = 0; i < synth_lines; ++i)
                platform.dmaWrite(0, (1ull << 30) + i * 64, 64);
            synth_lines = synth_lines * 5 / 4;
        });
    }

    // Per-interval report. DDIO counts come from the model, not the
    // MSR bus: the injector's read faults would wrap the deltas and
    // draw from the Rng the run itself uses.
    auto prev = sim::PlatformSnapshot::capture(platform);
    engine.addPeriodic(seconds / 10.0, [&](double now) {
        const auto cur = sim::PlatformSnapshot::capture(platform);
        const auto delta = cur.since(prev);
        const double dt = seconds / 10.0;
        std::printf("t=%6.1fms  ddio_ways=%u  hit=%8.2fM/s  "
                    "miss=%8.2fM/s",
                    now * 1e3,
                    platform.pqos().ddioGetWays().count(),
                    delta.ddio_hits / dt / 1e6,
                    delta.ddio_misses / dt / 1e6);
        if (daemon)
            std::printf("  state=%s", toString(daemon->state()));
        std::printf("\n");
        prev = cur;
    });

    const auto snap0 = sim::PlatformSnapshot::capture(platform);
    engine.run(seconds);
    if (stats) {
        sim::StatsReport(
            sim::PlatformSnapshot::capture(platform).since(snap0))
            .print();
    }

    std::printf("\nfinal allocation:\n");
    const unsigned num_ways = platform.pqos().l3NumWays();
    for (std::size_t t = 0; t < registry->size(); ++t) {
        std::printf("  %-12s %s  (%s, %s)\n",
                    (*registry)[t].name.c_str(),
                    platform.pqos()
                        .l3caGet(static_cast<cache::ClosId>(t + 1))
                        .toString(num_ways)
                        .c_str(),
                    toString((*registry)[t].priority),
                    (*registry)[t].is_io ? "io" : "non-io");
    }
    std::printf("  %-12s %s\n", "DDIO",
                platform.pqos().ddioGetWays().toString(num_ways)
                    .c_str());
    if (daemon) {
        std::printf("daemon: %llu ticks, %llu stable, %llu "
                    "shuffles\n",
                    static_cast<unsigned long long>(daemon->ticks()),
                    static_cast<unsigned long long>(
                        daemon->stableTicks()),
                    static_cast<unsigned long long>(
                        daemon->shuffles()));
        if (injector || !daemon->hardeningEnabled()) {
            std::printf(
                "hardening: %s, %llu bad samples, %llu clamped, "
                "%llu missed polls, %llu retries, %llu failures, "
                "degraded %llux (now %s)\n",
                daemon->hardeningEnabled() ? "on" : "OFF",
                static_cast<unsigned long long>(
                    daemon->badSamples()),
                static_cast<unsigned long long>(
                    daemon->monitor().outliersClamped()),
                static_cast<unsigned long long>(
                    daemon->missedPolls()),
                static_cast<unsigned long long>(
                    daemon->writeRetries()),
                static_cast<unsigned long long>(
                    daemon->writeFailures()),
                static_cast<unsigned long long>(
                    daemon->degradedEnters()),
                daemon->degraded() ? "degraded" : "engaged");
        }
    }
    if (injector) {
        std::printf(
            "faults injected (plan %s): %llu read, %llu wrmsr "
            "rejected, %llu polls dropped, %llu flaps, %llu stalls, "
            "%llu churn\n",
            fault_plan.hash(fault_plan.seed).c_str(),
            static_cast<unsigned long long>(injector->readFaults()),
            static_cast<unsigned long long>(
                injector->writeRejects()),
            static_cast<unsigned long long>(
                injector->pollsDropped()),
            static_cast<unsigned long long>(injector->linkFlaps()),
            static_cast<unsigned long long>(injector->ringStalls()),
            static_cast<unsigned long long>(
                injector->churnEvents()));
    }
    if (telemetry) {
        const auto &tcfg = telemetry->config();
        if (telemetry->flushTrace()) {
            std::printf("trace written to %s (%zu events)\n",
                        tcfg.trace_path.c_str(),
                        telemetry->tracer().size());
        }
        if (telemetry->flushMetrics()) {
            std::printf("metrics written to %s (%zu samples)\n",
                        tcfg.metrics_path.c_str(),
                        telemetry->sampler().rowCount());
        }
    }
    return 0;
}

int
cmdCluster(const CliArgs &args)
{
    cluster::ClusterConfig cfg;
    cfg.shards = static_cast<unsigned>(args.getInt("shards", 2));
    cfg.threads = static_cast<unsigned>(args.getInt("threads", 1));
    cfg.epoch_seconds = args.getDouble("epoch-us", 500.0) * 1e-6;
    cfg.fabric.latency_seconds =
        args.getDouble("fabric-latency-us", 5.0) * 1e-6;
    cfg.batch_tenants =
        static_cast<unsigned>(args.getInt("batch-tenants", 2));
    const std::string sched = args.getString("scheduler", "load");
    if (!cluster::parsePlacePolicy(sched, cfg.scheduler.policy))
        fatal("unknown scheduler '%s' (static|load|failover)",
              sched.c_str());
    cfg.scheduler.margin = args.getDouble("margin", 0.2);
    cfg.scheduler.cooldown_epochs =
        static_cast<std::uint64_t>(args.getInt("cooldown", 12));
    cfg.scheduler.dead_after_epochs =
        static_cast<std::uint64_t>(args.getInt("dead-after", 8));
    cfg.scheduler.degraded_after_epochs = static_cast<std::uint64_t>(
        args.getInt("degraded-after", 4));
    cfg.shard.rate_pps = args.getDouble("rate", 1.5) * 1e6;
    cfg.shard.remote_rate_pps =
        args.getDouble("remote-rate", 0.5) * 1e6;
    cfg.shard.batch_ws_bytes =
        static_cast<std::uint64_t>(args.getInt("batch-ws-mib", 48))
        << 20;
    cfg.shard.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    try {
        cfg.fault = fault::ClusterFaultPlan::fromCli(args);
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
    const double seconds = args.getDouble("seconds", 0.2);
    const bool tcp = args.getBool("tcp");
    const unsigned tcp_timeout_ms = static_cast<unsigned>(
        args.getInt("tcp-timeout-ms", 2000));

    args.requireKnown();

    cluster::ClusterWorld world(cfg);

    // --tcp: one loopback publisher fed by every host's records, one
    // collector draining it -- the cluster-collector wiring iatsvc
    // uses, exercised end to end from the CLI.
    obs::stream::StreamDispatcher dispatcher;
    obs::stream::TcpPublisher *publisher = nullptr;
    std::unique_ptr<obs::stream::TcpCollector> collector;
    if (tcp) {
        auto pub = std::make_unique<obs::stream::TcpPublisher>();
        if (!pub->ok())
            fatal("could not bind a loopback TCP publisher");
        publisher = pub.get();
        dispatcher.adopt(std::move(pub));
        collector = std::make_unique<obs::stream::TcpCollector>();
        collector->setReconnect(true);
        if (collector->connectTo(publisher->port(),
                                 tcp_timeout_ms) < 0)
            fatal("could not connect to publisher port %u within "
                  "%u ms (is the endpoint alive? see "
                  "--tcp-timeout-ms)",
                  publisher->port(), tcp_timeout_ms);
        publisher->pump(); // accept the pending connection
        world.setDispatcher(&dispatcher);
    }

    // Epoch-by-epoch so the publisher can pump between barriers
    // (sends are non-blocking; the collector drains as we go).
    const auto epochs = static_cast<std::uint64_t>(
        std::ceil(seconds / cfg.epoch_seconds - 1e-9));
    for (std::uint64_t e = 0; e < epochs; ++e) {
        world.run(cfg.epoch_seconds);
        if (tcp) {
            publisher->pump();
            collector->poll();
        }
    }

    std::printf("cluster: %u shards, %u worker threads, %llu epochs "
                "(%.1f ms), scheduler %s\n",
                world.shardCount(), world.workerThreads(),
                static_cast<unsigned long long>(world.epochs()),
                world.now() * 1e3,
                toString(cfg.scheduler.policy));
    for (unsigned s = 0; s < world.shardCount(); ++s) {
        auto &shard = world.shard(s);
        std::printf("  host%u: tx %llu rx %llu drops %llu  "
                    "remote %llu pkts  p99 %.1f us (host-side)  "
                    "dram %.2f\n",
                    s,
                    static_cast<unsigned long long>(
                        shard.world().txPackets()),
                    static_cast<unsigned long long>(
                        shard.world().rxPackets()),
                    static_cast<unsigned long long>(
                        shard.world().totalDrops()),
                    static_cast<unsigned long long>(
                        shard.remotePackets()),
                    shard.hostLatency().percentile(0.99) * 1e6,
                    shard.gauge("dram.utilization"));
    }
    std::printf("  fabric: %llu frames routed, %llu delivered, "
                "%llu dropped\n",
                static_cast<unsigned long long>(
                    world.fabric().framesRouted()),
                static_cast<unsigned long long>(
                    world.fabric().framesDelivered()),
                static_cast<unsigned long long>(
                    world.fabric().framesDropped()));
    if (const auto *inj = world.injector()) {
        std::printf("  faults (plan %s): %llu dropped random, %llu "
                    "dropped partition, %llu lost to crash, %llu "
                    "host-epochs skipped\n",
                    inj->plan().hash(cfg.shard.seed).c_str(),
                    static_cast<unsigned long long>(
                        inj->framesDroppedRandom()),
                    static_cast<unsigned long long>(
                        inj->framesDroppedPartition()),
                    static_cast<unsigned long long>(
                        inj->crashFramesLost()),
                    static_cast<unsigned long long>(
                        inj->hostEpochsSkipped()));
    }
    const auto &migrations = world.scheduler().migrations();
    std::printf("  migrations: %zu (%llu evacuations, %llu arrived, "
                "%zu in transit, %llu partition backoffs)\n",
                migrations.size(),
                static_cast<unsigned long long>(
                    world.scheduler().evacuations()),
                static_cast<unsigned long long>(
                    world.migrationArrivals()),
                world.migrationsInTransit(),
                static_cast<unsigned long long>(
                    world.scheduler().partitionBackoffs()));
    for (const auto &m : migrations) {
        std::printf("    epoch %llu: %s host%u -> host%u%s\n",
                    static_cast<unsigned long long>(m.epoch),
                    world.batchTenants()[m.tenant].name.c_str(),
                    m.from, m.to,
                    m.evacuation ? " (evacuation)" : "");
    }
    if (world.health().transitions() > 0) {
        std::printf("  health: %llu rule transitions",
                    static_cast<unsigned long long>(
                        world.health().transitions()));
        for (const auto &rule : world.health().status().rules) {
            if (rule.firing)
                std::printf(", %s FIRING", rule.name.c_str());
        }
        std::printf("\n");
    }
    if (tcp) {
        publisher->pump();
        collector->poll();
        std::printf("  tcp: %zu lines collected from port %u\n",
                    collector->totalLines(), publisher->port());
        std::printf("  tcp: publisher accepted %llu sent %llu "
                    "dropped %llu disconnects %llu; collector "
                    "disconnects %llu reconnects %llu (failed "
                    "%llu)\n",
                    static_cast<unsigned long long>(
                        publisher->accepted()),
                    static_cast<unsigned long long>(
                        publisher->sent()),
                    static_cast<unsigned long long>(
                        publisher->dropped()),
                    static_cast<unsigned long long>(
                        publisher->disconnects()),
                    static_cast<unsigned long long>(
                        collector->disconnects()),
                    static_cast<unsigned long long>(
                        collector->reconnects()),
                    static_cast<unsigned long long>(
                        collector->reconnectFailures()));
    }
    return 0;
}

/**
 * `iatctl service <command...>` -- talk to a running iatsvc over its
 * control socket. The positional words after "service" form the
 * command: a single word that looks like JSON is sent verbatim,
 * otherwise the first word becomes {"cmd":...} and remaining
 * key=value words become JSON members (numbers, true/false and
 * [..] arrays pass through unquoted; everything else is a string).
 */
int
cmdService(const CliArgs &args,
           const std::vector<std::string> &words)
{
    const std::string path =
        args.getString("control", "iatsvc.sock");
    const int timeout_ms =
        static_cast<int>(args.getInt("timeout-ms", 5000));
    args.requireKnown();
    if (words.empty())
        fatal("iatctl service needs a command (try: stats)");

    std::string request;
    if (words.size() == 1 && !words[0].empty() &&
        words[0][0] == '{') {
        request = words[0];
    } else {
        request = "{\"cmd\":\"" + words[0] + '"';
        for (std::size_t i = 1; i < words.size(); ++i) {
            const std::string &word = words[i];
            const std::size_t eq = word.find('=');
            if (eq == std::string::npos || eq == 0) {
                fatal("service argument must be key=value "
                      "(got '%s')", word.c_str());
            }
            const std::string key = word.substr(0, eq);
            const std::string value = word.substr(eq + 1);
            request += ",\"" + key + "\":";
            char *end = nullptr;
            std::strtod(value.c_str(), &end);
            const bool numeric =
                end && *end == '\0' && end != value.c_str();
            if (numeric || value == "true" || value == "false" ||
                (!value.empty() && value[0] == '[')) {
                request += value;
            } else {
                request += '"' + value + '"';
            }
        }
        request += '}';
    }

    const svc::ControlReply reply =
        svc::controlRequest(path, request, timeout_ms);
    if (!reply.ok)
        fatal("control request failed: %s", reply.error.c_str());
    std::printf("%s\n", reply.line.c_str());
    // The reply is JSON with an "ok" member; reflect it in the exit
    // code so scripts need no parser.
    return reply.line.find("\"ok\":true") != std::string::npos ? 0
                                                               : 1;
}

void
usage()
{
    std::printf(
        "usage: iatctl <command> [flags]\n"
        "  run     run a scenario under a policy\n"
        "          --scenario=agg|slicing|corun --policy=%s\n"
        "          --seconds=0.2 --frame=1500 --interval=0.005\n"
        "          --tenants=<affiliation file> (bare platform)\n"
        "          --stats (full platform counter report)\n"
        "          --trace=<file> (Chrome trace JSON; .jsonl for "
        "JSONL)\n"
        "          --metrics=<file> (CSV time series; .jsonl for "
        "JSONL)\n"
        "          --sample-interval=<s> --log-level="
        "quiet|warn|info|debug\n"
        "          --fault-read-noise=<p> --fault-write-reject=<p> "
        "--fault-poll-drop=<p>\n"
        "          --fault-counter-offset=<n> --fault-link-flap-"
        "period=<s> --fault-link-down=<s>\n"
        "          --fault-ring-stall-period=<s> --fault-ring-stall="
        "<s> --fault-churn-period=<s>\n"
        "          --fault-start=<s> --fault-duration=<s> "
        "--fault-seed=<n> (fault injection)\n"
        "          --no-hardening (throw the daemon's hardening "
        "kill switch)\n"
        "  fsm     trace the Fig 6 state machine: iatctl fsm "
        "5e6,0.5,0.5,0 ...\n"
        "  params  print Table II defaults\n"
        "  cluster run the sharded multi-host world\n"
        "          --shards=2 --threads=1 --seconds=0.2 "
        "--epoch-us=500\n"
        "          --fabric-latency-us=5 --rate=1.5 "
        "--remote-rate=0.5 (Mpps)\n"
        "          --batch-tenants=2 --scheduler=static|load|"
        "failover --margin=0.2\n"
        "          --cooldown=12 --dead-after=8 --degraded-after=4\n"
        "          --batch-ws-mib=48 --seed=1\n"
        "          --tcp (stream records through a loopback "
        "publisher/collector)\n"
        "          --tcp-timeout-ms=2000 (connect timeout; fails "
        "fast on a dead endpoint)\n"
        "          --cfault-crash-host=<s> --cfault-crash-epoch=<e> "
        "--cfault-crash-recovery=<n>\n"
        "          --cfault-slow-host=<s> --cfault-slow-factor=<n> "
        "--cfault-degrade-factor=<x>\n"
        "          --cfault-drop-prob=<p> --cfault-partition-cut=<k>"
        " (+ -epoch/-duration each)\n"
        "  service send one command to a running iatsvc\n"
        "          --control=<socket> (default iatsvc.sock) "
        "--timeout-ms=5000\n"
        "          iatctl service stats | health | snapshot | stop\n"
        "          iatctl service attach-tenant name=x cores=[6,7] "
        "ways=2 prio=be\n"
        "          iatctl service detach-tenant name=x\n"
        "          iatctl service set-traffic rate=2.5\n"
        "          iatctl service toggle-faults [on=true|false]\n",
        core::policyKindLabels().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    if (args.positional().empty()) {
        usage();
        return 1;
    }
    const std::string &cmd = args.positional()[0];
    if (cmd == "params") {
        args.requireKnown();
        return cmdParams();
    }
    if (cmd == "fsm") {
        args.requireKnown();
        return cmdFsm({args.positional().begin() + 1,
                       args.positional().end()});
    }
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "cluster")
        return cmdCluster(args);
    if (cmd == "service") {
        return cmdService(args, {args.positional().begin() + 1,
                                 args.positional().end()});
    }
    usage();
    return 1;
}
