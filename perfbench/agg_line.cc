/**
 * @file
 * Workload agg_line: the simspeed world (paper SS VI-B aggregation:
 * 2 x 40GbE at 64 B line rate through a 2-core OVS into 2 testpmd
 * containers, static CAT, exact LLC), single thread, no policy ticks.
 *
 * Untraced run: build the world kSetups times (setup_s is the
 * median), warm up for kWarmup simulated seconds untimed, then run
 * timed legs of kLeg simulated seconds until --seconds of host time
 * have passed. The first kWindow simulated seconds after the warmup
 * are simspeed's measurement window: its packet-event count is
 * pinned (ROADMAP's sentinel) and the modelled metrics and the
 * digest come from it, so they repeat exactly on every run.
 *
 * Traced run: the window once untraced and once through a timing
 * Runnable registered in place of AggTestPmdWorld::attach() (which
 * only adds the pipeline), plus an LLC capture of the same window
 * whose op stream is replayed into a fresh exact LLC.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.hh"
#include "perfbench/llc_replay.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/common.hh"
#include "sim/engine.hh"
#include "util/stats.hh"

namespace perf {

namespace {

using namespace iat;

constexpr double kWarmup = 0.01; ///< simspeed's warmup (sim s)
constexpr double kWindow = 0.3;  ///< simspeed's 3 x 0.1 s (sim s)
constexpr double kLeg = 0.001;   ///< one timed leg (sim s)
constexpr int kWindowLegs = 300; ///< kWindow / kLeg
/** stage_packet_events over the window (ROADMAP sentinel). */
constexpr std::uint64_t kSentinelEvents = 6530971;
constexpr unsigned kSetups = 15;
/** Accesses of the capture kept for replay after the warmup. */
constexpr std::size_t kReplayAccesses = 400000;
constexpr unsigned kReplayReps = 5;

/** Times each runQuantum of the wrapped runnable as a child span of
 *  the open leg span; records nothing while no leg is open. */
class TimedRunnable final : public sim::Runnable
{
  public:
    TimedRunnable(sim::Runnable &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {
    }

    std::int32_t leg_span = -1;
    std::uint64_t leg = 0;
    std::uint64_t quanta = 0;

    void
    runQuantum(double t_start, double dt) override
    {
        if (leg_span < 0) {
            inner_.runQuantum(t_start, dt);
            return;
        }
        const std::int32_t span = log_.begin("net.pipeline", leg_span, leg);
        inner_.runQuantum(t_start, dt);
        log_.end(span);
        ++quanta;
    }

  private:
    sim::Runnable &inner_;
    SpanLog &log_;
};

struct AggHandle
{
    std::unique_ptr<sim::Platform> platform;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<scenarios::AggTestPmdWorld> world;
    std::unique_ptr<TimedRunnable> timed;
};

/**
 * Build the world as simspeed does. With @p log the pipeline is
 * registered through a TimedRunnable; with @p shadow the recorder
 * sees the LLC from before the first configuration write.
 */
std::unique_ptr<AggHandle>
build(std::uint64_t seed, SpanLog *log = nullptr,
      cache::LlcShadow *shadow = nullptr)
{
    auto h = std::make_unique<AggHandle>();
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    h->platform = std::make_unique<sim::Platform>(pc);
    if (shadow)
        h->platform->llc().setShadow(shadow);
    h->engine = std::make_unique<sim::Engine>(*h->platform);
    scenarios::AggTestPmdConfig cfg;
    cfg.num_containers = 2;
    cfg.frame_bytes = 64;
    cfg.flows = 1;
    cfg.seed = seed;
    h->world =
        std::make_unique<scenarios::AggTestPmdWorld>(*h->platform, cfg);
    if (log) {
        h->timed =
            std::make_unique<TimedRunnable>(*h->world->pipeline(), *log);
        h->engine->add(h->timed.get());
    } else {
        h->world->attach(*h->engine);
    }
    scenarios::applyStaticLayout(h->platform->pqos(),
                                 h->world->registry());
    return h;
}

std::uint64_t
stageEvents(scenarios::AggTestPmdWorld &world)
{
    std::uint64_t total = 0;
    for (const auto &stage : world.pipeline()->stages())
        total += stage->packetsProcessed();
    return total;
}

/** What the measurement window produced. */
struct Window
{
    std::uint64_t events = 0;
    double host_s = 0.0;
    double tput_mpps = 0.0;
    double p99_us = 0.0;
    double jain = 1.0;
    double worst_slowdown = 1.0;
    std::uint64_t rx = 0, tx = 0, drops = 0;
    std::int64_t in_flight = 0;
    std::uint64_t in_flight_cap = 0;
    Counters before, after;
    std::string digest;
};

/**
 * Warm up untimed, then run the kWindow measurement window in kLeg
 * legs, each timed into @p legs.
 */
Window
runWindow(AggHandle &h, Legs &legs, SpanLog *log = nullptr)
{
    auto &world = *h.world;
    h.engine->run(kWarmup);
    // Cumulative rx/tx of the warmup, for conservation since t = 0.
    const std::uint64_t warm_rx = world.rxPackets();
    const std::uint64_t warm_tx = world.txPackets();
    world.resetStats();

    Window w;
    w.before = readCounters(*h.platform);
    const std::uint64_t events0 = stageEvents(world);
    for (int leg = 0; leg < kWindowLegs; ++leg) {
        std::int32_t span = -1;
        if (log) {
            span = log->begin("sim.engine.run", -1,
                              static_cast<std::uint64_t>(leg));
            h.timed->leg_span = span;
            h.timed->leg = static_cast<std::uint64_t>(leg);
        }
        const Stamp t0 = stampNow();
        h.engine->run(kLeg);
        w.host_s += legs.close(t0);
        if (log) {
            log->end(span);
            h.timed->leg_span = -1;
        }
    }
    w.events = stageEvents(world) - events0;
    w.after = readCounters(*h.platform);

    LatencyHistogram merged;
    std::uint64_t nic_drops = 0;
    std::vector<double> progress;
    for (unsigned i = 0; i < world.nicCount(); ++i) {
        auto &nic = world.nic(i);
        merged.merge(nic.latency());
        nic_drops += nic.rxStats().totalDrops();
        const double offered = static_cast<double>(
            nic.rxStats().rx_packets + nic.rxStats().totalDrops());
        progress.push_back(
            offered > 0.0 ? nic.txStats().tx_packets / offered : 0.0);
    }
    w.rx = world.rxPackets();
    w.tx = world.txPackets();
    w.drops = world.totalDrops();
    w.tput_mpps = static_cast<double>(w.tx) / kWindow / 1e6;
    w.p99_us = merged.percentile(0.99) * 1e6;

    // Jain's index over each container's delivered share of its
    // offered load, and the worst container's offered / delivered.
    double sum = 0.0, sum_sq = 0.0;
    for (const double p : progress) {
        sum += p;
        sum_sq += p * p;
        w.worst_slowdown =
            std::max(w.worst_slowdown, p > 0.0 ? 1.0 / p : 0.0);
    }
    if (sum_sq > 0.0)
        w.jain = sum * sum / (progress.size() * sum_sq);

    // Frames received since t = 0 are transmitted, dropped inside
    // the world (rings, forwarding) or still held in its rings.
    const std::uint64_t interior = w.drops - nic_drops;
    w.in_flight = static_cast<std::int64_t>(warm_rx + w.rx) -
                  static_cast<std::int64_t>(warm_tx + w.tx) -
                  static_cast<std::int64_t>(interior);
    const auto &cfg = world.config();
    w.in_flight_cap = static_cast<std::uint64_t>(
        cfg.pool_factor * cfg.ring_entries *
        (world.nicCount() + 2 * cfg.num_containers));

    const Counters &c = w.after;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "events=%llu rx=%llu tx=%llu drops=%llu llc_refs=%llu "
        "llc_misses=%llu ddio_hits=%llu ddio_misses=%llu "
        "writebacks=%llu dram_read=%llu dram_write=%llu p99_us=%.17g",
        static_cast<unsigned long long>(w.events),
        static_cast<unsigned long long>(w.rx),
        static_cast<unsigned long long>(w.tx),
        static_cast<unsigned long long>(w.drops),
        static_cast<unsigned long long>(c.llc_refs),
        static_cast<unsigned long long>(c.llc_misses),
        static_cast<unsigned long long>(c.ddio_hits),
        static_cast<unsigned long long>(c.ddio_misses),
        static_cast<unsigned long long>(c.writebacks),
        static_cast<unsigned long long>(c.dram_read),
        static_cast<unsigned long long>(c.dram_write), w.p99_us);
    w.digest = buf;
    return w;
}

void
checkWindow(Report &report, const Window &w, const std::string &tag)
{
    report.check(tag + ".sentinel_events", w.events == kSentinelEvents,
                 "stage packet events " + std::to_string(w.events) +
                     " != " + std::to_string(kSentinelEvents));
    report.check(tag + ".conservation",
                 w.in_flight >= 0 &&
                     static_cast<std::uint64_t>(w.in_flight) <=
                         w.in_flight_cap,
                 "rx - tx - interior drops = " +
                     std::to_string(w.in_flight));
}

void
runUntraced(const Options &opts, Report &report)
{
    std::vector<double> setup_s;
    std::unique_ptr<AggHandle> h;
    for (unsigned i = 0; i < kSetups; ++i) {
        h.reset();
        const auto t0 = Clock::now();
        h = build(opts.seed);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    Legs legs;
    const Window w = runWindow(*h, legs);
    checkWindow(report, w, "agg_line");
    double timed = w.host_s;
    while (timed < opts.seconds) {
        const Stamp t0 = stampNow();
        h->engine->run(kLeg);
        timed += legs.close(t0);
    }

    report.attempted = legs.wall_s.size();
    // Every leg is the same step of a small world; co-tenant load only
    // ever adds time to a leg, so the speed is read at the fast end.
    reportSpeed(report, legs, kLeg * 1e3, ReadAt::FastEnd);
    report.metric("setup_s", summarize(setup_s).median, "s");
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
    report.metric("sim_tput_mpps", w.tput_mpps, "Mpps");
    report.metric("sim_p99_us", w.p99_us, "sim-us");
    report.metric("jain", w.jain, "1");
    report.metric("worst_slowdown", w.worst_slowdown, "1");
    report.detail("timed_s", timed);
    report.detail("setup_s.n", kSetups);
    report.digest("agg_line", w.digest);
}

void
runTraced(const Options &opts, Report &report)
{
    // The same window untraced, then traced, on fresh worlds.
    Legs plain_legs, traced_legs;
    auto plain = build(opts.seed);
    const Window a = runWindow(*plain, plain_legs);
    plain.reset();

    SpanLog log;
    auto traced = build(opts.seed, &log);
    const Window b = runWindow(*traced, traced_legs, &log);
    const std::uint64_t quanta = traced->timed->quanta;
    traced.reset();

    // The window once more with the LLC recorder attached from
    // construction: its op-class counts cover the same window, and
    // the warmup plus the window's first kReplayAccesses accesses are
    // replayed into a fresh LLC (only the window part is timed).
    LlcRecorder rec;
    std::size_t warm_accesses = 0;
    std::uint64_t demand0 = 0, wb0 = 0, ddio0 = 0, dev0 = 0;
    cache::CacheGeometry geom;
    unsigned cores = 0;
    {
        auto cap = build(opts.seed, nullptr, &rec);
        geom = cap->platform->llc().geometry();
        cores = cap->platform->llc().numCores();
        cap->engine->run(kWarmup);
        warm_accesses = rec.storedAccesses();
        rec.storeAtMost(kReplayAccesses);
        demand0 = rec.core_demand;
        wb0 = rec.core_writebacks;
        ddio0 = rec.ddio_writes;
        dev0 = rec.device_reads;
        cap->world->resetStats();
        const std::uint64_t events0 = stageEvents(*cap->world);
        for (int leg = 0; leg < kWindowLegs; ++leg)
            cap->engine->run(kLeg);
        const std::uint64_t events = stageEvents(*cap->world) - events0;
        report.check("agg_line.capture_events", events == b.events,
                     "recorder changed the simulation: " +
                         std::to_string(events) + " events");
        cap->platform->llc().setShadow(nullptr);
    }
    std::uint64_t mismatches = 0;
    const auto replay_ns =
        rec.replay(geom, cores, warm_accesses, kReplayReps, mismatches);
    const std::size_t replay_ops = rec.storedAccesses() - warm_accesses;

    checkWindow(report, a, "agg_line.untraced");
    checkWindow(report, b, "agg_line.traced");
    report.check("agg_line.trace_digest", a.digest == b.digest,
                 "traced window digest differs from untraced");
    report.check("agg_line.replay_verdicts", mismatches == 0,
                 std::to_string(mismatches) + " replay verdicts differ");
    report.check("agg_line.replay_ops", replay_ops > 0,
                 "capture stored no window accesses");
    report.digest("agg_line", b.digest);
    report.attempted = kWindowLegs;

    const double pipeline_s = log.totalSeconds("net.pipeline");
    const double engine_self_s = log.selfSeconds("sim.engine.run");
    report.metric("sim.engine.self_s", engine_self_s, "s");
    report.metric("sim.engine.quanta", static_cast<double>(quanta),
                  "count");
    report.metric("sim.engine.ns_per_quantum",
                  quanta ? engine_self_s / quanta * 1e9 : 0.0, "ns");
    report.metric("net.pipeline_s", pipeline_s, "s");
    report.metric("net.pkt_events", static_cast<double>(b.events),
                  "count");
    report.metric("net.ns_per_pkt_event",
                  b.events ? pipeline_s / b.events * 1e9 : 0.0, "ns");
    report.metric("net.rx_pkts", static_cast<double>(b.rx), "count");
    report.metric("net.tx_pkts", static_cast<double>(b.tx), "count");
    report.metric("net.drops", static_cast<double>(b.drops), "count");
    reportCounters(report, b.after - b.before, kWindow,
                   sim::PlatformConfig{}.dram.peak_bandwidth_bytes_per_s);
    // The static layout is programmed once, at set-up: count it.
    report.metric("rdt.msr.writes", static_cast<double>(b.after.msr_writes),
                  "count");
    report.metric("cache.llc.device_reads",
                  static_cast<double>(rec.device_reads - dev0), "count");
    report.metric("cache.llc.replay_ops", static_cast<double>(replay_ops),
                  "count");
    report.timing("cache.llc.replay_ns_per_op", summarize(replay_ns),
                  "ns");
    report.metric("trace.untraced_s", a.host_s, "s");
    report.metric("trace.traced_s", b.host_s, "s");
    report.metric("trace.overhead_ratio", b.host_s / a.host_s, "ratio");
    report.detail("capture.core_demand",
                  static_cast<double>(rec.core_demand - demand0));
    report.detail("capture.core_writebacks",
                  static_cast<double>(rec.core_writebacks - wb0));
    report.detail("capture.ddio_writes",
                  static_cast<double>(rec.ddio_writes - ddio0));
    report.timing("leg_wall_s.traced", summarize(traced_legs.wall_s), "s");
    report.timing("leg_wall_s.untraced", summarize(plain_legs.wall_s),
                  "s");

    if (!opts.spans_path.empty())
        report.check("spans_written", log.write(opts.spans_path),
                     "could not write " + opts.spans_path);
}

} // namespace

void
runAggLine(const Options &opts, Report &report)
{
    if (opts.trace)
        runTraced(opts, report);
    else
        runUntraced(opts, report);
}

} // namespace perf
