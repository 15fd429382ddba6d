/**
 * @file
 * Workload bakeoff_smoke: the 12-trial policy bakeoff (agg and
 * slicing scenarios under baseline, core-only, io-iso, IAT, ioca and
 * lfoc, fault-free, --quick scale) through exp::runTrials with 2
 * jobs. The spec is the benchmark's own copy (bakeoff_smoke.exp);
 * --seed replaces its campaign seed. The trial body is the program's
 * registered "bakeoff" sweep, as iatexp runs it.
 *
 * Untraced run, timed part: the world of every campaign case (its
 * scenario under its policy, as the case's policy pass runs) is
 * stepped round robin in short legs until --seconds of host time have
 * passed; the speed is read at each case's median leg. Whole campaigns
 * cannot be timed steadily on a shared host: their 11-16 s walls
 * swing by a quarter from run to run under co-tenant load (README.md).
 * Untimed part: the campaign itself, for the correctness checks, the
 * results.jsonl digest and the modelled metrics.
 *
 * Traced run: one campaign untraced and one with a wrapper around the
 * TrialFn that records a span per trial, plus a cache probe: a
 * slicing world (the scenario that takes most trial time) under IAT,
 * captured through the LLC recorder and replayed.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweeps.hh"
#include "core/policy.hh"
#include "exp/campaign.hh"
#include "exp/results.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "perfbench/common.hh"
#include "perfbench/llc_replay.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "sim/engine.hh"
#include "util/units.hh"

namespace perf {

namespace {

using namespace iat;

constexpr unsigned kJobs = 2;
constexpr unsigned kSetups = 3;
/** A bakeoff pass settles for 0.04 s at scale 1 before measuring. */
constexpr double kSettleSeconds = 0.04 * exp::kQuickScale;
constexpr double kTickSeconds = 5e-3; ///< the bakeoff's policy interval
constexpr double kCaseLeg = 0.00025;  ///< one timed leg (sim s)
constexpr unsigned kVisitLegs = 20;
constexpr std::size_t kReplayAccesses = 400000;
constexpr unsigned kReplayReps = 5;

/** The slicing scenario as bench/bakeoff_sweeps.cc configures it:
 *  container 4's X-Mem already grown past its two ways. */
scenarios::SlicingPmdXmemConfig
slicingConfig(std::uint64_t seed)
{
    scenarios::SlicingPmdXmemConfig cfg;
    cfg.xmem_initial_bytes = 8 * MiB;
    cfg.seed = seed;
    return cfg;
}

struct Campaign
{
    exp::ExperimentSpec spec;
    std::string spec_hash;
    std::vector<exp::TrialContext> trials;
    exp::TrialFn fn;
};

Campaign
expandCampaign(const Options &opts, const exp::TrialRegistry &registry)
{
    Campaign c;
    c.spec = exp::ExperimentSpec::loadFile(opts.spec_path);
    c.spec.seed = opts.seed;
    c.spec_hash = c.spec.hash(exp::kQuickScale);
    c.trials = c.spec.expand(exp::kQuickScale);
    const auto *entry = registry.find(c.spec.sweep);
    if (entry == nullptr)
        throw std::runtime_error("sweep '" + c.spec.sweep +
                                 "' is not registered");
    c.fn = entry->fn;
    return c;
}

/** results.jsonl as the campaign writes it (trial order). */
std::string
resultsJsonl(const Campaign &c,
             const std::vector<exp::TrialOutcome> &outcomes)
{
    std::string text;
    for (std::size_t i = 0; i < c.trials.size(); ++i)
        text += exp::serializeRecord(c.spec_hash, c.trials[i],
                                     outcomes[i]) +
                "\n";
    return text;
}

double
metricOf(const exp::TrialOutcome &o, const std::string &name)
{
    for (const auto &[key, value] : o.result.metrics)
        if (key == name)
            return value;
    return 0.0;
}

void
checkOutcomes(Report &report, const Campaign &c,
              const std::vector<exp::TrialOutcome> &out,
              const std::string &tag)
{
    std::size_t bad = 0;
    std::string first;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const bool ok = out[i].status == exp::TrialStatus::Ok &&
                        metricOf(out[i], "read_faults") == 0.0 &&
                        metricOf(out[i], "write_rejects") == 0.0 &&
                        metricOf(out[i], "polls_dropped") == 0.0;
        if (!ok && bad++ == 0)
            first = "trial " + std::to_string(i) + ": " +
                    exp::toString(out[i].status) + " " + out[i].error;
    }
    report.check(tag + ".trials_ok", bad == 0 && out.size() == c.trials.size(),
                 std::to_string(bad) + " bad trials; " + first);
}

exp::RunnerConfig
runnerConfig()
{
    exp::RunnerConfig cfg;
    cfg.jobs = kJobs;
    cfg.progress = false;
    return cfg;
}

void
reportModelled(Report &report, const std::vector<exp::TrialOutcome> &out)
{
    double tput = 0.0, p99 = 0.0, jain = 0.0, worst = 0.0;
    for (const auto &o : out) {
        tput += metricOf(o, "tput_mps");
        p99 += metricOf(o, "p99_us");
        jain += metricOf(o, "jain");
        worst = std::max(worst, metricOf(o, "worst_slowdown"));
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, out.size()));
    report.metric("sim_tput_mpps", tput / n, "Mpps");
    report.metric("sim_p99_us", p99 / n, "sim-us");
    report.metric("jain", jain / n, "1");
    report.metric("worst_slowdown", worst, "1");
}

/** The agg scenario as bench/bakeoff_sweeps.cc configures it: the top
 *  of the Fig 9 ramp, flow state large enough to be LLC-bound. */
scenarios::AggTestPmdConfig
aggConfig(std::uint64_t seed)
{
    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = 64;
    cfg.flows = 1'000'000;
    cfg.flow_dist = net::FlowDistribution::Uniform;
    cfg.seed = seed;
    return cfg;
}

/** One campaign case as its policy pass runs: world plus policy. */
struct CaseWorld
{
    std::unique_ptr<sim::Platform> platform;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<scenarios::AggTestPmdWorld> agg;
    std::unique_ptr<scenarios::SlicingPmdXmemWorld> slicing;
    std::unique_ptr<core::Policy> policy;
    Legs legs;
};

/** Build trial @p ctx's world with its policy ticking every 5 ms (the
 *  bakeoff's interval), through the policy registry. */
std::unique_ptr<CaseWorld>
buildCase(const exp::TrialContext &ctx)
{
    auto c = std::make_unique<CaseWorld>();
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    c->platform = std::make_unique<sim::Platform>(pc);
    c->engine = std::make_unique<sim::Engine>(*c->platform);
    const std::string scenario = ctx.requireString("scenario");
    core::TenantRegistry *registry = nullptr;
    core::TenantModel model = core::TenantModel::Slicing;
    if (scenario == "agg") {
        c->agg = std::make_unique<scenarios::AggTestPmdWorld>(
            *c->platform, aggConfig(ctx.seed));
        c->agg->attach(*c->engine);
        registry = &c->agg->registry();
        model = core::TenantModel::Aggregation;
    } else if (scenario == "slicing") {
        c->slicing = std::make_unique<scenarios::SlicingPmdXmemWorld>(
            *c->platform, slicingConfig(ctx.seed));
        c->slicing->attach(*c->engine);
        registry = &c->slicing->registry();
    } else {
        throw std::runtime_error("unknown scenario '" + scenario + "'");
    }
    core::PolicyKind kind;
    if (!core::parsePolicyKind(ctx.requireString("policy"), kind))
        throw std::runtime_error("unknown policy");
    core::IatParams params;
    params.interval_seconds = kTickSeconds;
    c->policy = core::makePolicy(kind, c->platform->pqos(), *registry,
                                 params, model);
    core::Policy *policy = c->policy.get();
    c->engine->addPeriodic(
        kTickSeconds, [policy](double now) { policy->tick(now); }, 0.0);
    return c;
}

void
runUntraced(const Options &opts, Report &report)
{
    exp::TrialRegistry registry;
    bench::registerBakeoffSweeps(registry);
    const Campaign c = expandCampaign(opts, registry);

    // Set-up: build every case's world, kSetups times (setup_s is the
    // median); the last set is kept. Timed part: the worlds, settled
    // untimed, are stepped round robin on this thread in kCaseLeg legs
    // (kVisitLegs per visit) until --seconds have passed, so each
    // case's legs spread over the whole run; at least two rounds.
    std::vector<std::unique_ptr<CaseWorld>> cases;
    std::vector<double> setup_s;
    for (unsigned k = 0; k < kSetups; ++k) {
        cases.clear();
        const auto t0 = Clock::now();
        for (const auto &ctx : c.trials)
            cases.push_back(buildCase(ctx));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    for (auto &w : cases)
        w->engine->run(kSettleSeconds);
    double timed = 0.0;
    std::size_t legs = 0;
    for (unsigned round = 0; round < 2 || timed < opts.seconds; ++round) {
        for (auto &w : cases) {
            for (unsigned k = 0; k < kVisitLegs; ++k) {
                const Stamp t0 = stampNow();
                w->engine->run(kCaseLeg);
                timed += w->legs.close(t0);
                ++legs;
            }
        }
    }
    // Each case is read at the median of its legs' CPU times (these
    // memory-bound worlds have no quiet fast end; README.md), and the
    // cases are weighed equally by simulated time.
    double med_cpu = 0.0, med_wall = 0.0;
    for (const auto &w : cases) {
        med_cpu += summarize(w->legs.cpu_s).median;
        med_wall += summarize(w->legs.wall_s).median;
    }
    report.detail("case_legs",
                  static_cast<double>(cases.front()->legs.cpu_s.size()));
    cases.clear();

    // Untimed part: the campaign itself, for the checks, the digest
    // and the modelled metrics.
    const auto t0 = Clock::now();
    const auto out = exp::runTrials(c.trials, c.fn, runnerConfig());
    const double campaign_s = secondsBetween(t0, Clock::now());
    checkOutcomes(report, c, out, "bakeoff_smoke");

    report.attempted = legs;
    const double cases_ms = c.trials.size() * kCaseLeg * 1e3;
    report.metric("sim_ms_per_s", cases_ms / med_cpu, "sim-ms/s");
    report.detail("sim_ms_per_s.wall_median", cases_ms / med_wall);
    report.metric("setup_s", summarize(setup_s).median, "s");
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
    reportModelled(report, out);
    report.detail("campaign_s", campaign_s);
    report.detail("campaign_trials_per_s", out.size() / campaign_s);
    report.detail("timed_s", timed);
    report.digest("bakeoff_smoke.results_jsonl",
                  hashHex(resultsJsonl(c, out)));
}

/**
 * Cache probe: the slicing scenario as a bakeoff trial's policy pass
 * runs it (X-Mem container 4 at 8 MiB, IAT ticking every 5 ms), with
 * the LLC recorder attached. Reports the cache, mem and rdt layers
 * over the pass's window and the replay speed of its core-demand
 * dominated op stream.
 */
void
cacheProbe(const Options &opts, Report &report)
{
    const double settle = 0.04 * exp::kQuickScale;
    const double window = 0.06 * exp::kQuickScale;
    LlcRecorder rec;
    std::size_t warm_accesses = 0;
    std::uint64_t dev0 = 0, dev1 = 0;
    cache::CacheGeometry geom;
    unsigned cores = 0;
    {
        sim::PlatformConfig pc;
        pc.num_cores = 8;
        sim::Platform platform(pc);
        platform.llc().setShadow(&rec);
        geom = platform.llc().geometry();
        cores = platform.llc().numCores();
        sim::Engine engine(platform);
        scenarios::SlicingPmdXmemWorld world(platform, slicingConfig(opts.seed));
        world.attach(engine);
        core::IatParams params;
        params.interval_seconds = 5e-3;
        auto policy = core::makePolicy(core::PolicyKind::Iat,
                                       platform.pqos(), world.registry(),
                                       params, core::TenantModel::Slicing);
        engine.addPeriodic(
            params.interval_seconds,
            [&policy](double now) { policy->tick(now); }, 0.0);
        engine.run(settle);
        warm_accesses = rec.storedAccesses();
        rec.storeAtMost(kReplayAccesses);
        dev0 = rec.device_reads;
        const Counters before = readCounters(platform);
        engine.run(window);
        dev1 = rec.device_reads;
        reportCounters(report, readCounters(platform) - before, window,
                       pc.dram.peak_bandwidth_bytes_per_s);
        platform.llc().setShadow(nullptr);
    }
    std::uint64_t mismatches = 0;
    const auto replay_ns =
        rec.replay(geom, cores, warm_accesses, kReplayReps, mismatches);
    report.check("bakeoff_smoke.replay_verdicts", mismatches == 0,
                 std::to_string(mismatches) + " replay verdicts differ");
    report.metric("cache.llc.device_reads",
                  static_cast<double>(dev1 - dev0), "count");
    report.metric("cache.llc.replay_ops",
                  static_cast<double>(rec.storedAccesses() - warm_accesses),
                  "count");
    report.timing("cache.llc.replay_ns_per_op", summarize(replay_ns),
                  "ns");
}

void
runTraced(const Options &opts, Report &report)
{
    exp::TrialRegistry registry;
    bench::registerBakeoffSweeps(registry);
    const Campaign c = expandCampaign(opts, registry);

    auto t0 = Clock::now();
    const auto plain = exp::runTrials(c.trials, c.fn, runnerConfig());
    const double plain_s = secondsBetween(t0, Clock::now());

    SpanLog log;
    std::int32_t campaign_span = -1;
    const exp::TrialFn traced_fn = [&](const exp::TrialContext &ctx) {
        const std::int32_t span =
            log.begin("exp.trial", campaign_span, ctx.index);
        auto result = c.fn(ctx);
        log.end(span);
        return result;
    };
    t0 = Clock::now();
    campaign_span = log.begin("exp.campaign", -1, 0);
    const auto traced = exp::runTrials(c.trials, traced_fn, runnerConfig());
    log.end(campaign_span);
    const double traced_s = secondsBetween(t0, Clock::now());

    checkOutcomes(report, c, plain, "bakeoff_smoke.untraced");
    checkOutcomes(report, c, traced, "bakeoff_smoke.traced");
    const std::string jsonl = resultsJsonl(c, traced);
    report.check("bakeoff_smoke.trace_digest",
                 resultsJsonl(c, plain) == jsonl,
                 "traced results.jsonl differs from untraced");
    report.digest("bakeoff_smoke.results_jsonl", hashHex(jsonl));
    report.attempted = traced.size();

    // Trial host time by scenario and by policy.
    std::map<std::string, std::vector<double>> by_group;
    double trial_total = 0.0;
    for (const auto &s : log.spans()) {
        if (std::string_view(s.name) != "exp.trial" || s.end_ns < 0)
            continue;
        const auto &ctx = c.trials[s.id];
        const double d = (s.end_ns - s.start_ns) * 1e-9;
        by_group[ctx.getString("scenario", "?")].push_back(d);
        by_group[ctx.getString("policy", "?")].push_back(d);
        trial_total += d;
    }
    for (const auto &[group, times] : by_group)
        report.timing("exp.trial_s." + group, summarize(times), "s");
    report.metric("exp.runner_s", kJobs * traced_s - trial_total, "s");
    report.metric("exp.trials_per_s", traced.size() / plain_s, "1/s");
    report.metric("trace.untraced_s", plain_s, "s");
    report.metric("trace.traced_s", traced_s, "s");
    report.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");

    cacheProbe(opts, report);

    if (!opts.spans_path.empty())
        report.check("spans_written", log.write(opts.spans_path),
                     "could not write " + opts.spans_path);
}

} // namespace

void
runBakeoffSmoke(const Options &opts, Report &report)
{
    try {
        if (opts.trace)
            runTraced(opts, report);
        else
            runUntraced(opts, report);
    } catch (const std::exception &e) {
        report.check("bakeoff_smoke.campaign", false, e.what());
    }
}

} // namespace perf
