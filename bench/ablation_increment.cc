/**
 * @file
 * Ablation: one-way-per-iteration DDIO growth (the paper's default)
 * vs the miss-curve-guided multi-way increment SS IV-D floats as a
 * UCP-style alternative.
 *
 * Aggregation world, 1.5KB line rate from a cold start. Reported:
 * intervals until the DDIO way count stops changing (convergence),
 * the DRAM bytes consumed during that transient, and the steady
 * DDIO miss rate afterwards. The adaptive step converges faster at
 * the cost of occasionally overshooting the needed capacity.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/agg_testpmd.hh"

namespace {

using namespace iat;

struct Row
{
    unsigned convergence_intervals = 0;
    double transient_dram_mb = 0.0;
    double steady_miss_mps = 0.0;
    unsigned final_ways = 2;
};

Row
runCase(bool adaptive, double scale, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = 1500;
    cfg.seed = seed;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    params.adaptive_io_step = adaptive;
    const auto policy =
        core::makePolicy(core::PolicyKind::Iat, platform.pqos(),
                         world.registry(), params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);
    const core::IatDaemon &daemon = *policy->daemon();

    // Convergence bookkeeping: registered right after the tick, so at
    // each interval it fires after the daemon (equal-time hooks fire
    // in registration order) and sees that tick's DDIO ways.
    Row row;
    unsigned last_change = 0;
    unsigned interval = 0;
    unsigned prev_ways = 2;
    engine.addPeriodic(
        params.interval_seconds,
        [&](double) {
            ++interval;
            if (daemon.ddioWays() != prev_ways) {
                prev_ways = daemon.ddioWays();
                last_change = interval;
            }
        },
        0.0);

    // The transient is the whole cold start, so its DRAM bytes are
    // the cumulative counters at its end.
    engine.run(0.08 * scale);
    const auto transient = sim::PlatformSnapshot::capture(platform);
    row.convergence_intervals = last_change;
    row.transient_dram_mb =
        (transient.dram_read_bytes + transient.dram_write_bytes) / 1e6;
    row.final_ways = daemon.ddioWays();

    const double window = 0.03 * scale;
    engine.run(window);
    const auto steady =
        sim::PlatformSnapshot::capture(platform).since(transient);
    row.steady_miss_mps = steady.ddio_misses / window / 1e6;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double scale = bench::quickScale(args);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    bench::requireBenchFlags(args);

    TablePrinter table("Ablation: +-1 way vs miss-curve-guided DDIO "
                       "increment (1.5KB line rate, cold start)");
    table.setHeader({"increment", "intervals_to_converge",
                     "transient_dram_MB", "steady_ddio_miss_M/s",
                     "final_ddio_ways"});

    for (const bool adaptive : {false, true}) {
        const auto row = runCase(adaptive, scale, seed);
        table.addRow({adaptive ? "adaptive(1..3)" : "one-way",
                      std::to_string(row.convergence_intervals),
                      TablePrinter::num(row.transient_dram_mb, 1),
                      TablePrinter::num(row.steady_miss_mps, 2),
                      std::to_string(row.final_ways)});
        std::printf("  %s done\n",
                    adaptive ? "adaptive" : "one-way");
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
