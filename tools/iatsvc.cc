/**
 * @file
 * iatsvc -- the model as a long-running service.
 *
 * Where iatctl runs a world to a fixed horizon and reports, iatsvc
 * runs one open-ended: simulated time advances quantum by quantum
 * (free-running, or throttled to --realtime-ratio sim-seconds per
 * wall-second) until told to stop, and the world is observed and
 * steered while it runs:
 *
 *  - the streaming telemetry pipeline (--stream JSONL file,
 *    --publish live socket, always the in-memory ring);
 *  - health/SLO watchdogs evaluated over the ring;
 *  - an NDJSON control socket (--control, default iatsvc.sock)
 *    answering stats / health / attach-tenant / detach-tenant /
 *    set-traffic / toggle-faults / snapshot / stop -- the surface
 *    `iatctl service ...` speaks.
 *
 * The daemon-singleton shape: one Service instance owns the whole
 * world; SIGINT/SIGTERM ask it to stop at the next quantum boundary
 * and the normal exit path flushes every sink, so a ^C'd service
 * leaves a complete stream behind.
 */

#include <csignal>
#include <cstdio>

#include "core/policy.hh"
#include "svc/service.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace {

using namespace iat;

/** The singleton the signal handlers reach; set once in main. */
svc::Service *g_service = nullptr;

extern "C" void
stopSignal(int)
{
    // requestStop only stores an atomic flag; the run loop notices
    // at the next control hook and exits through the normal
    // flush-everything path.
    if (g_service != nullptr)
        g_service->requestStop();
}

void
usage()
{
    std::printf(
        "usage: iatsvc [flags]\n"
        "  --control=<sock>     NDJSON control socket "
        "(default iatsvc.sock; \"\" disables)\n"
        "  --stream=<file>      append every record as JSONL\n"
        "  --publish=<sock>     live-subscriber socket "
        "(nc -U <sock> to tail)\n"
        "  --publish-tcp=<port> live-subscriber TCP listener on "
        "127.0.0.1 (0 = ephemeral;\n"
        "                       the stats command reports the bound "
        "port)\n"
        "  --trace=<file>       snapshot trace target "
        "(written by the snapshot command)\n"
        "  --metrics=<file>     snapshot time-series target\n"
        "  --interval=<s>       daemon poll + sample period "
        "(default 0.005)\n"
        "  --realtime-ratio=<r> sim seconds per wall second "
        "(default 0 = free-run)\n"
        "  --seconds=<s>        stop after this much simulated time "
        "(default: run until stopped)\n"
        "  --ring=<n>           watchdog ring capacity "
        "(default 4096)\n"
        "  --cores=<n>          platform cores (default 8)\n"
        "  --rate=<r>           initial traffic rate (default 1.0)\n"
        "  --tenants=<file>     affiliation file "
        "(default: built-in 3-tenant mix)\n"
        "  --check              shadow oracle + allocation "
        "invariants every tick\n"
        "  --no-hardening       disable the daemon's fault "
        "hardening\n"
        "  --policy=<name>      controller to run: %s "
        "(default IAT)\n"
        "  --slo-p99-cycles=<c> arm the slo_p99 watchdog\n"
        "  --churn-storm=<n>    arm the churn_storm watchdog\n"
        "  --fault-*            fault campaign "
        "(same family as iatctl run)\n",
        core::policyKindLabels().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    if (args.getBool("help")) {
        usage();
        return 0;
    }
    if (!args.positional().empty()) {
        usage();
        return 1;
    }

    svc::ServiceConfig cfg = svc::ServiceConfig::fromCli(args);
    const double seconds = args.getDouble("seconds", 0.0);
    args.requireKnown();

    svc::Service service(std::move(cfg));
    g_service = &service;
    // Installed after construction so these handlers shadow the
    // telemetry crash-flush hooks: a signal now means "stop
    // cleanly", and the normal exit path does the flushing.
    std::signal(SIGINT, stopSignal);
    std::signal(SIGTERM, stopSignal);

    const svc::ServiceConfig &live = service.config();
    inform("iatsvc: control=%s stream=%s publish=%s interval=%gs "
           "ratio=%g",
           live.control_path.empty() ? "-"
                                     : live.control_path.c_str(),
           live.stream_path.empty() ? "-" : live.stream_path.c_str(),
           live.publish_path.empty() ? "-"
                                     : live.publish_path.c_str(),
           live.interval_seconds, live.realtime_ratio);

    if (seconds > 0.0)
        service.runFor(seconds);
    else
        service.run();

    g_service = nullptr;
    std::printf("iatsvc: stopped at t=%.6fs after %llu samples, "
                "%llu records, %llu health transitions\n",
                service.platform().now(),
                static_cast<unsigned long long>(
                    service.telemetry().sampler().totalSamples()),
                static_cast<unsigned long long>(
                    service.stream().published()),
                static_cast<unsigned long long>(
                    service.health().transitions()));
    const auto &violations = service.violations();
    if (!violations.empty()) {
        std::printf("iatsvc: %zu check violations, first: %s\n",
                    violations.size(), violations[0].c_str());
        return 1;
    }
    return 0;
}
