/**
 * @file
 * Shared bench harness plumbing: policy labels, fairness,
 * measurement-window helpers, and output conventions. Benches build
 * policies with core::makePolicy() and hook them with
 * fault::attachPolicy().
 *
 * Every bench binary regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index), prints it as an aligned table,
 * and optionally emits CSV (--csv=<path>). The --quick flag shrinks
 * simulated windows for smoke runs; all durations are simulated
 * time, scaled from the paper's wall-clock experiment per DESIGN.md
 * SS1 ("time scaling").
 */

#ifndef IATSIM_BENCH_COMMON_HH
#define IATSIM_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/baselines.hh"
#include "core/daemon.hh"
#include "core/policy.hh"
#include "fault/injector.hh"
#include "obs/telemetry.hh"
#include "scenarios/common.hh"
#include "sim/engine.hh"
#include "sim/stats_report.hh"
#include "sim/telemetry.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace iat::bench {

/**
 * Paper-facing label: Fig 10 presents the footnote-3 ablated daemon
 * simply as "IAT", so figure tables use this; machine-readable
 * output (CSV/JSONL) uses core::toString().
 */
inline const char *
figureLabel(core::PolicyKind kind)
{
    if (kind == core::PolicyKind::IatNoDdio)
        return "IAT";
    if (kind == core::PolicyKind::Ioca)
        return "IOCA";
    if (kind == core::PolicyKind::Lfoc)
        return "LFOC";
    return core::toString(kind);
}

/**
 * IPC of a measurement window's cores: the row sumCores() returns
 * from a PlatformSnapshot::since() delta. 0 when no cycle elapsed.
 */
inline double
ipc(const sim::PlatformSnapshot::CoreRow &row)
{
    return row.cycles ? static_cast<double>(row.instructions) /
                            static_cast<double>(row.cycles)
                      : 0.0;
}

/**
 * Per-tenant fairness of one policy run against solo-run references
 * (the bakeoff's LFOC axis). Slowdown of tenant t is
 * IPC_solo,t / IPC_policy,t -- how much slower the tenant ran
 * sharing the cache under the policy than alone on the machine.
 * Jain's index is computed over the tenants' normalized progress
 * (1 / slowdown): 1.0 means perfectly even degradation, 1/n means
 * one tenant absorbed all of it.
 */
struct FairnessReport
{
    std::vector<double> slowdown; ///< per measured tenant
    double jain = 1.0;
    double worst_slowdown = 1.0;
};

/**
 * Compute the report from per-tenant IPC pairs. Tenants whose solo
 * or shared IPC is ~zero (idle cores, quiesced workloads) count as
 * slowdown 1 so they do not poison the index.
 */
inline FairnessReport
computeFairness(const std::vector<double> &solo_ipc,
                const std::vector<double> &run_ipc)
{
    FairnessReport report;
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t n = 0;
    for (std::size_t t = 0;
         t < solo_ipc.size() && t < run_ipc.size(); ++t) {
        constexpr double kMinIpc = 1e-9;
        const double slowdown =
            (solo_ipc[t] > kMinIpc && run_ipc[t] > kMinIpc)
                ? solo_ipc[t] / run_ipc[t]
                : 1.0;
        report.slowdown.push_back(slowdown);
        report.worst_slowdown =
            std::max(report.worst_slowdown, slowdown);
        const double progress = 1.0 / slowdown;
        sum += progress;
        sum_sq += progress * progress;
        ++n;
    }
    if (n > 0 && sum_sq > 0.0) {
        report.jain = (sum * sum) /
                      (static_cast<double>(n) * sum_sq);
    }
    return report;
}

/**
 * Export @p report through the metrics/stream pipeline:
 * `fairness.jain` and `fairness.worst_slowdown` gauges plus one
 * `fairness.slowdown.<t>` gauge per tenant. @p report must outlive
 * the telemetry session (the gauges read it by reference). Safe on
 * nullptr.
 */
inline void
bindFairnessGauges(obs::Telemetry *telemetry,
                   const FairnessReport &report)
{
    if (!telemetry)
        return;
    auto &metrics = telemetry->metrics();
    metrics.gauge("fairness.jain",
                  [&report] { return report.jain; });
    metrics.gauge("fairness.worst_slowdown",
                  [&report] { return report.worst_slowdown; });
    for (std::size_t t = 0; t < report.slowdown.size(); ++t) {
        metrics.gauge("fairness.slowdown." + std::to_string(t),
                      [&report, t] {
                          return t < report.slowdown.size()
                                     ? report.slowdown[t]
                                     : 0.0;
                      });
    }
}

/** Standard bench epilogue: print, optionally write CSV. */
inline void
finishBench(TablePrinter &table, const CliArgs &args)
{
    table.print();
    const std::string csv = args.getString("csv", "");
    if (!csv.empty()) {
        if (table.writeCsv(csv))
            std::printf("csv written to %s\n", csv.c_str());
        else
            std::printf("warning: could not write %s\n", csv.c_str());
    }
    // By now the bench has looked up every flag it understands, so
    // anything left is a typo the parser would otherwise swallow.
    args.declareKnown({"quick", "seed"});
    args.warnUnknown();
}

/** Scale factor for --quick smoke runs. */
inline double
quickScale(const CliArgs &args)
{
    return args.getBool("quick") ? 0.3 : 1.0;
}

/**
 * Standard telemetry epilogue: write the configured trace/metrics
 * files and say where they went. Safe on nullptr (flags not given).
 */
inline void
finishTelemetry(const obs::Telemetry *telemetry)
{
    if (!telemetry)
        return;
    const auto &cfg = telemetry->config();
    if (telemetry->flushTrace())
        std::printf("trace written to %s\n", cfg.trace_path.c_str());
    if (telemetry->flushMetrics()) {
        std::printf("metrics written to %s\n",
                    cfg.metrics_path.c_str());
    }
}

} // namespace iat::bench

#endif // IATSIM_BENCH_COMMON_HH
