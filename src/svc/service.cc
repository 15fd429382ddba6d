/**
 * @file
 * Service implementation.
 */

#include "svc/service.hh"

#include <cstdio>
#include <thread>

#include "check/invariants.hh"
#include "check/policy_check.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/proc.hh"

namespace iat::svc {

namespace {

/** Sums to 8 of 11 ways, leaving headroom for live attach-tenant. */
constexpr const char *kDefaultTenants =
    "web   cores=0,1 ways=3 prio=pc io=1\n"
    "db    cores=2,3 ways=3 prio=pc io=0\n"
    "batch cores=4,5 ways=2 prio=be io=0\n";

std::string
jnum(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jstr(const std::string &s)
{
    return '"' + json::escape(s) + '"';
}

std::string
errorReply(const std::string &what)
{
    return "{\"ok\":false,\"error\":" + jstr(what) + '}';
}

double
numberField(const json::Value &obj, const char *key, double def)
{
    const json::Value *v = obj.find(key);
    return v && v->kind == json::Value::Kind::Number ? v->number
                                                     : def;
}

std::string
stringField(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v && v->kind == json::Value::Kind::String ? v->string
                                                     : "";
}

} // namespace

ServiceConfig
ServiceConfig::fromCli(const CliArgs &args)
{
    ServiceConfig cfg;
    cfg.control_path = args.getString("control", "iatsvc.sock");
    cfg.stream_path = args.getString("stream", "");
    cfg.publish_path = args.getString("publish", "");
    cfg.trace_path = args.getString("trace", "");
    cfg.metrics_path = args.getString("metrics", "");
    cfg.interval_seconds = args.getDouble("interval", 5e-3);
    cfg.realtime_ratio = args.getDouble("realtime-ratio", 0.0);
    cfg.ring_capacity = static_cast<std::size_t>(
        args.getInt("ring", 4096));
    cfg.check_mode = args.getBool("check");
    cfg.hardening = !args.getBool("no-hardening");
    const std::string policy_name = args.getString("policy", "");
    if (!policy_name.empty() &&
        !core::parsePolicyKind(policy_name, cfg.policy)) {
        fatal("unknown policy '%s' (%s)", policy_name.c_str(),
              core::policyKindLabels().c_str());
    }
    cfg.traffic_rate = args.getDouble("rate", 1.0);
    const std::string tenant_file = args.getString("tenants", "");
    if (!tenant_file.empty()) {
        std::FILE *f = std::fopen(tenant_file.c_str(), "r");
        if (!f)
            fatal("cannot open tenant file '%s'",
                  tenant_file.c_str());
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            cfg.tenants_text.append(buf, n);
        std::fclose(f);
    }
    cfg.fault_plan = fault::FaultPlan::fromCli(args);
    if (cfg.fault_plan.seed == 0)
        cfg.fault_plan.seed = 1;
    cfg.params.interval_seconds = cfg.interval_seconds;
    cfg.platform.num_cores = static_cast<unsigned>(
        args.getInt("cores", 8));
    cfg.health.slo_p99 = args.getDouble("slo-p99-cycles", 0.0);
    cfg.health.churn_storm = args.getDouble("churn-storm", 0.0);
    return cfg;
}

Service::Service(ServiceConfig cfg)
    : cfg_(std::move(cfg)), platform_(cfg_.platform),
      engine_(platform_)
{
    obs::TelemetryConfig tcfg;
    tcfg.trace_path = cfg_.trace_path;
    tcfg.metrics_path = cfg_.metrics_path;
    tcfg.sample_interval = cfg_.interval_seconds;
    telemetry_ = std::make_unique<obs::Telemetry>(tcfg);
    engine_.attachTelemetry(telemetry_.get());

    buildStream();
    buildWorld();
    installHooks();

    if (!cfg_.control_path.empty())
        control_ =
            std::make_unique<ControlServer>(cfg_.control_path);

    wall_start_ = std::chrono::steady_clock::now();
    sim_start_ = platform_.now();
    publishLifecycle(platform_.now(), "start");
}

Service::~Service()
{
    dispatcher_.flushAll();
    // Streaming producers hold a dispatcher pointer; detach before
    // the sinks go away underneath them.
    telemetry_->sampler().setStream(nullptr);
    telemetry_->tracer().setStream(nullptr);
}

void
Service::buildStream()
{
    // Sink order: durable file first, live subscribers, then the
    // ring the watchdogs read.
    if (!cfg_.stream_path.empty()) {
        jsonl_ = std::make_unique<obs::stream::JsonlFileExporter>(
            cfg_.stream_path);
        if (!jsonl_->ok())
            warn("stream sink disabled (cannot open %s)",
                 cfg_.stream_path.c_str());
        dispatcher_.add(jsonl_.get());
    }
    if (!cfg_.publish_path.empty()) {
        pub_ = std::make_unique<obs::stream::SocketPublisher>(
            cfg_.publish_path);
        if (!pub_->ok())
            warn("publish sink disabled (cannot listen on %s)",
                 cfg_.publish_path.c_str());
        dispatcher_.add(pub_.get());
    }
    ring_ = std::make_unique<obs::stream::RingBufferExporter>(
        cfg_.ring_capacity,
        kindBit(obs::stream::StreamKind::Header) |
            kindBit(obs::stream::StreamKind::Sample) |
            kindBit(obs::stream::StreamKind::Health));
    dispatcher_.add(ring_.get());

    // Incremental emission with bounded in-memory buffers: the
    // stream carries history, memory holds a window.
    // Pipeline-loss gauge: any sink shedding records (a stalled
    // subscriber, a failing file write) shows up in the time series
    // itself, not only in an operator-polled stats reply.
    telemetry_->metrics().gauge("stream.dropped", [this] {
        return static_cast<double>(dispatcher_.droppedTotal());
    });

    auto &sampler = telemetry_->sampler();
    sampler.setRowLimit(cfg_.sampler_row_limit);
    sampler.setStream(&dispatcher_);
    auto &tracer = telemetry_->tracer();
    tracer.setEnabled(true);
    tracer.setEventLimit(cfg_.tracer_event_limit);
    tracer.setStream(&dispatcher_);
}

void
Service::buildWorld()
{
    registry_.loadFromString(cfg_.tenants_text.empty()
                                 ? kDefaultTenants
                                 : cfg_.tenants_text);

    if (cfg_.check_mode)
        diff_ = std::make_unique<check::DiffHarness>(
            platform_.llc());

    policy_ = core::makePolicy(cfg_.policy, platform_.pqos(),
                               registry_, cfg_.params,
                               core::TenantModel::Slicing,
                               telemetry_.get(), cfg_.hardening);
    daemon_ = policy_->daemon();

    traffic_ =
        std::make_unique<SyntheticTraffic>(platform_, registry_);
    traffic_->setRate(cfg_.traffic_rate);
    traffic_->setLatencyHistogram(
        &telemetry_->metrics().histogram("svc.req_latency_cycles"));
    engine_.add(traffic_.get());

    auto &m = telemetry_->metrics();
    m_commands_ = &m.counter("svc.commands");
    m_violations_ = &m.counter("svc.check_violations");
    m.gauge("svc.tenants", [this] {
        return static_cast<double>(registry_.size());
    });
    m.gauge("svc.traffic_rate", [this] { return traffic_->rate(); });

    if (cfg_.fault_plan.any()) {
        injector_ = std::make_unique<fault::FaultInjector>(
            cfg_.fault_plan, telemetry_.get());
        injector_->setRegistry(&registry_);
    }
}

void
Service::installHooks()
{
    const double interval = cfg_.interval_seconds;

    // Policy poll (phase 0: the setup tick runs at t=0, before any
    // fault can arm -- the injector contract).
    engine_.addPeriodic(
        interval,
        [this](double now) {
            if (injector_ && injector_->dropPoll(now))
                return;
            policy_->tick(now);
            afterPolicyTick(now);
        },
        0.0);

    if (injector_)
        injector_->arm(engine_, platform_);

    // Platform gauges + the sampler, last so the first sample's
    // column freeze sees every metric registered above.
    platform_telemetry_ = std::make_unique<sim::PlatformTelemetry>(
        platform_, telemetry_->metrics());
    engine_.addPeriodic(interval, [this](double now) {
        platform_telemetry_->update();
        telemetry_->sampler().sample(now);
    });

    // Health watchdogs, after the sampler hook so an evaluation at
    // the same timestamp sees that timestamp's row in the ring.
    obs::HealthConfig hcfg = cfg_.health;
    if (hcfg.sample_interval <= 0.0)
        hcfg.sample_interval = interval;
    health_ = std::make_unique<obs::HealthMonitor>(
        hcfg, *ring_, &telemetry_->metrics(), &dispatcher_);
    engine_.addPeriodic(interval, [this](double now) {
        health_->evaluate(now);
    });

    // Wall-clock seam: control socket, live subscribers, throttle,
    // external stop. Everything wall-related lives in this one hook;
    // simulated time never depends on it.
    engine_.addPeriodic(
        interval,
        [this](double now) {
            if (pub_)
                pub_->pump();
            if (control_) {
                control_->pump([this](const std::string &line) {
                    return handleCommand(line);
                });
            }
            throttle(now);
            if (stop_.load())
                engine_.requestStop();
        },
        0.0);
}

void
Service::throttle(double now)
{
    if (cfg_.realtime_ratio <= 0.0)
        return;
    const double wall_target_s =
        (now - sim_start_) / cfg_.realtime_ratio;
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start_)
            .count();
    double behind = wall_target_s - wall_s;
    // Cap each nap so the control socket stays responsive even at
    // extreme ratios; the deficit carries over to the next hook.
    if (behind > 0.02)
        behind = 0.02;
    if (behind > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(behind));
}

void
Service::afterPolicyTick(double now)
{
    if (!cfg_.check_mode)
        return;
    // Contract-driven invariants; strict hardware-mask checks only
    // when no fault can legitimately leave a stale mask behind.
    const bool strict = cfg_.fault_plan.read_noise <= 0.0 &&
                        cfg_.fault_plan.write_reject <= 0.0;
    const std::string violation = check::policyViolation(
        *policy_, platform_.pqos(), registry_, cfg_.params, strict);
    if (!violation.empty())
        recordViolation(now, violation);
    if (diff_ && !diff_->clean() && !diff_reported_) {
        diff_reported_ = true;
        recordViolation(now, "shadow LLC diverged: " +
                                 diff_->report().first_mismatch);
    }
}

void
Service::recordViolation(double now, const std::string &what)
{
    if (violations_.size() < 64)
        violations_.push_back(what);
    if (m_violations_)
        m_violations_->inc();
    telemetry_->tracer().instant(now, "check", "check.violation",
                                 {{"what", what}});
    warn("check violation at t=%.6f: %s", now, what.c_str());
}

void
Service::publishLifecycle(double now, const char *event,
                          const std::string &detail)
{
    obs::stream::StreamRecord rec;
    rec.kind = obs::stream::StreamKind::Lifecycle;
    rec.t_seconds = now;
    rec.json = "{\"kind\":\"lifecycle\",\"t_seconds\":" +
               json::number(now) + ",\"event\":" + jstr(event);
    if (!detail.empty())
        rec.json += ",\"detail\":" + jstr(detail);
    rec.json += '}';
    dispatcher_.publish(rec);
}

void
Service::run()
{
    publishLifecycle(platform_.now(), "run");
    engine_.runOpenEnded();
    publishLifecycle(platform_.now(), "stop");
    dispatcher_.flushAll();
}

void
Service::runFor(double sim_seconds)
{
    engine_.run(sim_seconds);
}

std::string
Service::cmdStats()
{
    const auto sink_stats = dispatcher_.sinkStats();
    std::string sinks = "[";
    for (std::size_t i = 0; i < sink_stats.size(); ++i) {
        if (i)
            sinks += ',';
        sinks += "{\"name\":" + jstr(sink_stats[i].name) +
                 ",\"handled\":" + jnum(sink_stats[i].handled) +
                 ",\"dropped\":" + jnum(sink_stats[i].dropped) + '}';
    }
    sinks += ']';

    std::string out = "{\"ok\":true,\"t_seconds\":" +
                      json::number(platform_.now());
    out += ",\"tenants\":" + jnum(std::uint64_t{registry_.size()});
    out += ",\"policy\":" + jstr(policy_->name());
    if (daemon_ != nullptr) {
        out += ",\"daemon\":{\"ticks\":" + jnum(daemon_->ticks()) +
               ",\"state\":" + jstr(toString(daemon_->state())) +
               ",\"degraded\":" +
               (daemon_->degraded() ? "true" : "false") +
               ",\"missed_polls\":" +
               jnum(daemon_->missedPolls()) + ",\"ddio_ways\":" +
               jnum(std::uint64_t{daemon_->ddioWays()}) + '}';
    }
    out += ",\"traffic\":{\"rate\":" +
           json::number(traffic_->rate()) +
           ",\"dma_lines\":" + jnum(traffic_->dmaLines()) +
           ",\"core_reads\":" + jnum(traffic_->coreReads()) + '}';
    out += ",\"stream\":{\"published\":" +
           jnum(dispatcher_.published()) +
           ",\"dropped\":" + jnum(dispatcher_.droppedTotal()) +
           ",\"samples\":" +
           jnum(telemetry_->sampler().totalSamples()) +
           ",\"sinks\":" + sinks + '}';
    if (pub_) {
        out += ",\"subscribers\":" +
               jnum(std::uint64_t{pub_->subscriberCount()});
    }
    if (injector_) {
        out += ",\"faults\":{\"suspended\":";
        out += injector_->suspended() ? "true" : "false";
        out += ",\"armed\":";
        out += injector_->armed() ? "true" : "false";
        out += ",\"polls_dropped\":" +
               jnum(injector_->pollsDropped()) +
               ",\"churn_events\":" + jnum(injector_->churnEvents()) +
               '}';
    }
    if (cfg_.check_mode) {
        out += ",\"check\":{\"violations\":" +
               jnum(std::uint64_t{violations_.size()});
        if (diff_) {
            out += ",\"shadow_ops\":" + jnum(diff_->report().ops) +
                   ",\"shadow_mismatches\":" +
                   jnum(diff_->report().mismatches);
        }
        out += '}';
    }
    out += ",\"rss_bytes\":" + jnum(currentRssBytes());
    out += '}';
    return out;
}

std::string
Service::cmdHealth()
{
    const obs::HealthStatus &status =
        health_->evaluate(platform_.now());
    return "{\"ok\":true,\"health\":" +
           status.toJson(health_->transitions()) + '}';
}

std::string
Service::cmdAttachTenant(const json::Value &cmd)
{
    const std::string name = stringField(cmd, "name");
    if (name.empty())
        return errorReply("attach-tenant needs a name");
    if (registry_.indexOf(name) >= 0)
        return errorReply("tenant '" + name + "' already attached");

    core::TenantSpec spec;
    spec.name = name;
    const json::Value *cores = cmd.find("cores");
    if (cores && cores->kind == json::Value::Kind::Array) {
        for (const auto &item : cores->items) {
            if (item->kind != json::Value::Kind::Number ||
                item->number < 0)
                return errorReply("bad core list");
            spec.cores.push_back(static_cast<cache::CoreId>(
                item->number));
        }
    }
    if (spec.cores.empty())
        return errorReply("attach-tenant needs cores");
    for (const cache::CoreId core : spec.cores)
        if (core >= platform_.config().num_cores)
            return errorReply("core out of range");
    const double ways = numberField(cmd, "ways", 2.0);
    if (ways < 1.0 || ways > platform_.pqos().l3NumWays())
        return errorReply("bad way count");
    spec.initial_ways = static_cast<unsigned>(ways);
    // The allocator asserts sum(initial_ways) <= LLC ways on the
    // re-alloc this attach triggers; refuse here instead of dying
    // there.
    unsigned total_ways = spec.initial_ways;
    for (const core::TenantSpec &t : registry_.tenants())
        total_ways += t.initial_ways;
    if (total_ways > platform_.pqos().l3NumWays()) {
        return errorReply(
            "no way capacity: " + std::to_string(total_ways) +
            " initial ways requested, LLC has " +
            std::to_string(platform_.pqos().l3NumWays()));
    }
    const std::string prio = stringField(cmd, "prio");
    if (prio == "pc")
        spec.priority = core::TenantPriority::PerformanceCritical;
    else if (prio == "stack")
        spec.priority = core::TenantPriority::SoftwareStack;
    else if (prio.empty() || prio == "be")
        spec.priority = core::TenantPriority::BestEffort;
    else
        return errorReply("bad prio (pc|be|stack)");
    const json::Value *io = cmd.find("io");
    spec.is_io = io && io->kind == json::Value::Kind::Bool &&
                 io->boolean;

    registry_.add(std::move(spec));
    publishLifecycle(platform_.now(), "attach-tenant", name);
    return "{\"ok\":true,\"tenants\":" +
           jnum(std::uint64_t{registry_.size()}) + '}';
}

std::string
Service::cmdDetachTenant(const json::Value &cmd)
{
    const std::string name = stringField(cmd, "name");
    if (name.empty())
        return errorReply("detach-tenant needs a name");
    if (registry_.size() <= 1)
        return errorReply("cannot detach the last tenant");
    if (!registry_.removeByName(name))
        return errorReply("no tenant named '" + name + "'");
    publishLifecycle(platform_.now(), "detach-tenant", name);
    return "{\"ok\":true,\"tenants\":" +
           jnum(std::uint64_t{registry_.size()}) + '}';
}

std::string
Service::cmdSetTraffic(const json::Value &cmd)
{
    const json::Value *rate = cmd.find("rate");
    if (!rate || rate->kind != json::Value::Kind::Number)
        return errorReply("set-traffic needs a numeric rate");
    traffic_->setRate(rate->number);
    publishLifecycle(platform_.now(), "set-traffic",
                     json::number(traffic_->rate()));
    return "{\"ok\":true,\"rate\":" +
           json::number(traffic_->rate()) + '}';
}

std::string
Service::cmdToggleFaults(const json::Value &cmd)
{
    if (!injector_)
        return errorReply("no fault plan configured");
    const json::Value *on = cmd.find("on");
    bool suspend;
    if (on && on->kind == json::Value::Kind::Bool)
        suspend = !on->boolean;
    else
        suspend = !injector_->suspended();
    injector_->setSuspended(suspend);
    publishLifecycle(platform_.now(), "toggle-faults",
                     suspend ? "suspended" : "active");
    return std::string("{\"ok\":true,\"suspended\":") +
           (suspend ? "true" : "false") + '}';
}

std::string
Service::cmdSnapshot()
{
    dispatcher_.flushAll();
    std::string out = "{\"ok\":true";
    if (!cfg_.trace_path.empty() && telemetry_->flushTrace())
        out += ",\"trace\":" + jstr(cfg_.trace_path);
    if (!cfg_.metrics_path.empty() && telemetry_->flushMetrics())
        out += ",\"metrics\":" + jstr(cfg_.metrics_path);
    out += ",\"samples\":" +
           jnum(telemetry_->sampler().totalSamples()) +
           ",\"events\":" + jnum(telemetry_->tracer().totalEvents());
    out += ",\"rss_bytes\":" + jnum(currentRssBytes());
    out += '}';
    publishLifecycle(platform_.now(), "snapshot");
    return out;
}

std::string
Service::cmdStop()
{
    stop_.store(true);
    return "{\"ok\":true,\"stopping\":true}";
}

std::string
Service::handleCommand(const std::string &line)
{
    if (m_commands_)
        m_commands_->inc();
    const auto root = json::parse(line);
    if (!root || root->kind != json::Value::Kind::Object)
        return errorReply("malformed command (want one JSON object)");
    const std::string cmd = stringField(*root, "cmd");
    if (cmd.empty())
        return errorReply("missing \"cmd\"");
    if (cmd == "stats")
        return cmdStats();
    if (cmd == "health")
        return cmdHealth();
    if (cmd == "attach-tenant")
        return cmdAttachTenant(*root);
    if (cmd == "detach-tenant")
        return cmdDetachTenant(*root);
    if (cmd == "set-traffic")
        return cmdSetTraffic(*root);
    if (cmd == "toggle-faults")
        return cmdToggleFaults(*root);
    if (cmd == "snapshot")
        return cmdSnapshot();
    if (cmd == "stop")
        return cmdStop();
    if (cmd == "ping")
        return "{\"ok\":true,\"pong\":true}";
    return errorReply("unknown command '" + cmd + "'");
}

} // namespace iat::svc
