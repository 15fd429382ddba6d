/**
 * @file
 * Figure 11: LLC allocation and container-4 LLC misses over time
 * under IAT (slicing world, 1.5KB frames).
 *
 * The paper samples container 4's misses with an independent pqos
 * process every 0.1s while IAT manages the allocation; the model
 * samples every daemon interval. The printed timeline shows the way
 * masks reacting within one interval of each phase change, which is
 * the figure's point.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "util/units.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double scale = bench::quickScale(args);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    bench::requireBenchFlags(args);

    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::SlicingPmdXmemConfig cfg;
    cfg.frame_bytes = 1500;
    cfg.seed = seed;
    scenarios::SlicingPmdXmemWorld world(platform, cfg);
    world.attach(engine);

    // --trace gives this figure as an interactive Perfetto timeline;
    // --metrics exports the same series the table prints.
    auto telemetry = obs::makeTelemetry(args);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    // IAT-noddio: the paper's footnote 3.
    const auto policy = core::makePolicy(
        core::PolicyKind::IatNoDdio, platform.pqos(), world.registry(),
        params, world.model(), telemetry.get());
    fault::attachPolicy(engine, *policy, params.interval_seconds);
    const core::IatDaemon &daemon = *policy->daemon();

    if (telemetry) {
        engine.attachTelemetry(telemetry.get());
        world.pipeline()->setTelemetry(telemetry.get());
        sim::installPlatformSampler(engine, platform, *telemetry,
                                    params.interval_seconds);
    }

    // Scripted phases (paper: 5s and 15s; scaled per DESIGN.md).
    const double t1 = 0.06 * scale;
    const double t2 = 0.20 * scale;
    const double t_end = 0.30 * scale;
    engine.at(t1, [&](double) { world.growXmem4(10 * MiB); });
    engine.at(t2, [&](double) {
        platform.pqos().ddioSetWays(cache::WayMask::fromRange(7, 4));
    });

    TablePrinter table("Figure 11: allocation timeline with IAT "
                       "(1.5KB; phases at the marked times)");
    table.setHeader({"t_ms", "state", "ddio_mask", "pmd_mask",
                     "xmem2_mask", "xmem3_mask", "xmem4_mask",
                     "xmem4_miss_K/s"});

    const unsigned num_ways = platform.pqos().l3NumWays();
    std::uint64_t last_miss = 0;
    engine.addPeriodic(
        params.interval_seconds,
        [&](double now) {
            const auto &alloc = daemon.allocator();
            const auto miss =
                platform.llc().coreCounters(4).llc_misses;
            const double miss_rate =
                (miss - last_miss) / params.interval_seconds / 1e3;
            last_miss = miss;
            table.addRow(
                {TablePrinter::num(now * 1e3, 1),
                 toString(daemon.state()),
                 platform.pqos().ddioGetWays().toString(num_ways),
                 alloc.tenantMask(0).toString(num_ways),
                 alloc.tenantMask(1).toString(num_ways),
                 alloc.tenantMask(2).toString(num_ways),
                 alloc.tenantMask(3).toString(num_ways),
                 TablePrinter::num(miss_rate, 0)});
        },
        params.interval_seconds * 0.5);

    engine.run(t_end);
    std::printf("phase changes: xmem4 2MB->10MB at %.1fms, "
                "DDIO 2->4 ways at %.1fms\n",
                t1 * 1e3, t2 * 1e3);
    bench::finishBench(table, args);
    bench::finishTelemetry(telemetry.get());
    return 0;
}
