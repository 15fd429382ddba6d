/**
 * @file
 * Shared bench harness plumbing: fairness, measurement-window
 * helpers (the Figs 12-14 co-run pass), and flag and output
 * conventions. Benches build policies with core::makePolicy() and
 * hook them with fault::attachPolicy().
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
#include "exp/campaign.hh"
#include "fault/injector.hh"
#include "obs/telemetry.hh"
#include "scenarios/common.hh"
#include "scenarios/corun.hh"
#include "sim/engine.hh"
#include "sim/stats_report.hh"
#include "sim/telemetry.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace iat::bench {

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

/** How one co-run pass (corunPass) sets the cache up. */
struct CorunSetup
{
    /** Static applies deterministic @ref placement (0-2); any other
     *  kind is attached with the daemon's tenant way tuning off, as
     *  in the paper's app study (SS VI-C). */
    core::PolicyKind kind = core::PolicyKind::Static;
    int placement = 0;

    /** Solo reference instead: the X-Mem background is paused, and
     *  the networking app too unless @ref solo_networking, under
     *  placement 0. The PC app always runs. */
    bool solo = false;
    bool solo_networking = false;
};

/**
 * One co-run pass of Figs 12-14: build @p cfg's world on an 8-core
 * platform, set the cache up per @p setup, settle for
 * 0.04 * @p scale, reset stats, run the 0.08 * @p scale window and
 * return @p read(world, window), so each figure reads its own
 * metrics.
 */
template <typename Read>
auto
corunPass(const scenarios::CorunConfig &cfg, const CorunSetup &setup,
          double scale, Read read)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);
    scenarios::CorunWorld world(platform, cfg);
    world.attach(engine);

    std::unique_ptr<core::Policy> policy;
    if (setup.solo) {
        if (!setup.solo_networking)
            world.setNetworkingActive(false);
        world.setBackgroundActive(false);
        world.applyDeterministicPlacement(0);
    } else if (setup.kind == core::PolicyKind::Static) {
        world.applyDeterministicPlacement(setup.placement);
    } else {
        core::IatParams params;
        params.interval_seconds = 5e-3;
        policy = core::makePolicy(setup.kind, platform.pqos(),
                                  world.registry(), params,
                                  world.model());
        fault::attachPolicy(engine, *policy, params.interval_seconds);
        if (auto *daemon = policy->daemon())
            daemon->setTenantTuningEnabled(false);
    }
    engine.run(0.04 * scale);
    world.resetStats();
    const double window = 0.08 * scale;
    engine.run(window);
    return read(world, window);
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
}

/**
 * Standard bench prologue: call it once the bench has read its own
 * flags and before it simulates anything. Every bench takes --quick,
 * --seed and --csv (which finishBench reads); any other flag not
 * read by now is fatal, so a typo stops the run instead of falling
 * back to a default.
 */
inline void
requireBenchFlags(const CliArgs &args)
{
    args.declareKnown({"quick", "seed", "csv"});
    args.requireKnown();
}

/** Scale factor for --quick smoke runs (iatexp's --quick too). */
inline double
quickScale(const CliArgs &args)
{
    return args.getBool("quick") ? exp::kQuickScale : 1.0;
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
