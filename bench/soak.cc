/**
 * @file
 * The service-mode soak harness: hours of *simulated* time under
 * tenant churn and a standing fault campaign, with the shadow
 * oracles on, asserting at the end that nothing rotted:
 *
 *  - zero allocation-invariant violations and zero shadow-LLC
 *    mismatches (src/check ran the whole time);
 *  - zero telemetry gaps: the streamed JSONL parses cleanly, sample
 *    timestamps are strictly monotone, and the largest sample
 *    spacing stays within the health monitor's own gap budget;
 *  - the header's delta/level/cumulative semantics round-trip;
 *  - every control command keeps working mid-run (the harness
 *    drives the same handleCommand surface the socket dispatches
 *    into, on a schedule, and checks each reply);
 *  - memory stays bounded: RSS growth over the soak is capped, the
 *    in-memory sampler/tracer windows hold their limits;
 *  - the health-transition log is written for post-mortems.
 *
 * Defaults simulate 2 hours in bounded wall time (free-running);
 * --seconds scales it (CI smoke runs use 60). Exit status is the
 * number of failed assertions, so CI needs no output parsing.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/stream/reader.hh"
#include "svc/service.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/proc.hh"

namespace {

using namespace iat;

unsigned g_failures = 0;

void
expect(bool ok, const char *what)
{
    if (ok) {
        std::printf("  ok   %s\n", what);
    } else {
        std::printf("  FAIL %s\n", what);
        ++g_failures;
    }
}

/** Does @p reply parse as JSON with "ok":true? */
bool
replyOk(const std::string &reply)
{
    const auto v = json::parse(reply);
    if (!v || v->kind != json::Value::Kind::Object)
        return false;
    const json::Value *ok = v->find("ok");
    return ok && ok->kind == json::Value::Kind::Bool && ok->boolean;
}

/**
 * attach/detach of the harness tenant races with the fault plan's
 * churn (which parks and re-adds the *last-added* tenant, i.e. often
 * ours), so "already attached" / "no tenant named" are legitimate
 * interleavings. The reply must still be well-formed JSON with an
 * "ok" bool -- a malformed reply or a transport-shaped failure is a
 * real bug.
 */
bool
replyWellFormed(const std::string &reply)
{
    const auto v = json::parse(reply);
    if (!v || v->kind != json::Value::Kind::Object)
        return false;
    const json::Value *ok = v->find("ok");
    return ok && ok->kind == json::Value::Kind::Bool;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const double total_seconds = args.getDouble("seconds", 7200.0);
    const double rss_budget_mb = args.getDouble("rss-budget-mb", 256.0);
    const std::string stream_path =
        args.getString("stream", "soak_stream.jsonl");
    const std::string transitions_path =
        args.getString("transitions", "soak_health.jsonl");

    svc::ServiceConfig cfg;
    cfg.control_path = ""; // in-process: drive handleCommand directly
    cfg.stream_path = stream_path;
    cfg.interval_seconds = 5e-3;
    cfg.check_mode = true;
    cfg.health.slo_p99 = args.getDouble("slo-p99-cycles", 0.0);
    // The standing weather: noisy counter reads, dropped polls,
    // periodic tenant churn and Rx ring stalls, armed from t=0 to
    // the end of the run.
    cfg.fault_plan.seed = static_cast<std::uint64_t>(
        args.getInt("seed", 42));
    cfg.fault_plan.read_noise = 0.02;
    cfg.fault_plan.poll_drop = 0.02;
    cfg.fault_plan.write_reject = 0.01;
    cfg.fault_plan.churn_period_seconds = 1.0;
    args.requireKnown();

    std::printf("soak: %.0fs simulated, stream=%s\n", total_seconds,
                stream_path.c_str());
    svc::Service service(std::move(cfg));
    const std::uint64_t rss_start = currentRssBytes();

    // Slice the soak into legs; between legs, exercise the full
    // command surface mid-run the way a live operator would.
    const unsigned legs = 8;
    const double leg_seconds = total_seconds / legs;
    bool commands_ok = true;
    bool junk_rejected = true;
    for (unsigned leg = 0; leg < legs; ++leg) {
        service.runFor(leg_seconds);
        const double rate = 0.5 + 0.5 * ((leg + 1) % 4);
        commands_ok &= replyOk(service.handleCommand(
            "{\"cmd\":\"set-traffic\",\"rate\":" +
            std::to_string(rate) + '}'));
        commands_ok &= replyOk(
            service.handleCommand("{\"cmd\":\"stats\"}"));
        commands_ok &= replyOk(
            service.handleCommand("{\"cmd\":\"health\"}"));
        if (leg % 2 == 0) {
            commands_ok &= replyWellFormed(service.handleCommand(
                "{\"cmd\":\"attach-tenant\",\"name\":\"soak\","
                "\"cores\":[6,7],\"ways\":2,\"prio\":\"be\"}"));
        } else {
            commands_ok &= replyWellFormed(service.handleCommand(
                "{\"cmd\":\"detach-tenant\",\"name\":\"soak\"}"));
        }
        commands_ok &= replyOk(service.handleCommand(
            "{\"cmd\":\"toggle-faults\"}"));
        commands_ok &= replyOk(service.handleCommand(
            "{\"cmd\":\"toggle-faults\",\"on\":true}"));
        junk_rejected &= !replyOk(service.handleCommand("{broken"));
        junk_rejected &= !replyOk(service.handleCommand(
            "{\"cmd\":\"no-such-command\"}"));
        std::printf("  leg %u/%u: t=%.1fs samples=%" PRIu64
                    " violations=%zu transitions=%" PRIu64 "\n",
                    leg + 1, legs, service.platform().now(),
                    service.telemetry().sampler().totalSamples(),
                    service.violations().size(),
                    service.health().transitions());
    }
    commands_ok &=
        replyOk(service.handleCommand("{\"cmd\":\"snapshot\"}"));
    service.stream().flushAll();

    std::printf("soak checks:\n");
    expect(commands_ok, "every control command honored mid-run");
    expect(junk_rejected, "malformed/unknown commands rejected");
    expect(service.violations().empty(),
           "zero allocation-invariant violations");
    expect(service.diff() && service.diff()->clean(),
           "shadow LLC bit-identical");
    expect(service.diff() && service.diff()->report().ops > 0,
           "shadow oracle actually exercised");

    // Stream round trip.
    bool read_ok = false;
    const obs::stream::StreamLog log =
        obs::stream::readStreamFile(stream_path, &read_ok);
    expect(read_ok, "stream file readable");
    expect(log.bad_lines == 0, "zero bad stream lines");
    expect(!log.truncated_tail, "no truncated tail");
    expect(log.timestampsMonotone(),
           "sample timestamps strictly monotone");
    const double interval = service.config().interval_seconds;
    const double gap_budget =
        service.health().config().gap_factor * interval;
    std::printf("  max sample spacing %.6fs (budget %.6fs)\n",
                log.maxSampleSpacing(), gap_budget);
    expect(log.maxSampleSpacing() <= gap_budget,
           "no telemetry gap (spacing within the watchdog budget)");
    expect(log.samples.size() + 8 >=
               service.telemetry().sampler().totalSamples(),
           "every sample reached the file");
    expect(log.columnIndex("daemon.ticks") >= 0 &&
               log.columnIndex("daemon.degraded") >= 0,
           "expected columns present in header");

    // The gap rule never fired on the live ring either.
    const obs::HealthStatus &health =
        service.health().status();
    const obs::RuleStatus *gap = health.rule("telemetry_gap");
    expect(gap && gap->enabled && !gap->firing,
           "telemetry_gap watchdog clear at end of soak");

    // Bounded memory: the sliding windows held, and RSS growth over
    // the whole soak stays under budget (0 = procfs unavailable,
    // skip rather than fake a pass/fail).
    expect(service.telemetry().sampler().rowCount() <=
               service.config().sampler_row_limit,
           "sampler window bounded");
    expect(service.telemetry().tracer().size() <=
               service.config().tracer_event_limit,
           "tracer window bounded");
    const std::uint64_t rss_end = currentRssBytes();
    if (rss_start > 0 && rss_end > 0) {
        const double grown_mb =
            rss_end > rss_start
                ? static_cast<double>(rss_end - rss_start) / 1e6
                : 0.0;
        std::printf("  rss %.1f MB -> %.1f MB (+%.1f MB, budget "
                    "%.0f MB)\n",
                    rss_start / 1e6, rss_end / 1e6, grown_mb,
                    rss_budget_mb);
        expect(grown_mb <= rss_budget_mb, "RSS growth bounded");
    } else {
        std::printf("  rss unknown (no procfs); bound skipped\n");
    }

    // Post-mortem artifact: every health transition as JSONL.
    std::FILE *tf = std::fopen(transitions_path.c_str(), "w");
    if (tf) {
        std::size_t written = 0;
        for (const auto &event : log.events) {
            if (event.kind != "health")
                continue;
            std::fprintf(tf, "%s\n", event.json.c_str());
            ++written;
        }
        std::fclose(tf);
        std::printf("  %zu health transitions -> %s\n", written,
                    transitions_path.c_str());
    } else {
        expect(false, "health-transition log writable");
    }

    std::printf("soak: t=%.1fs, %" PRIu64 " samples, %" PRIu64
                " records, %u failures\n",
                service.platform().now(),
                service.telemetry().sampler().totalSamples(),
                service.stream().published(), g_failures);
    return static_cast<int>(g_failures);
}
