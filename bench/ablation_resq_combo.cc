/**
 * @file
 * Ablation: ResQ-style ring sizing vs IAT vs the combination the
 * paper suggests in SS VI-B ("it is desirable to combine IAT and a
 * slightly smaller Rx buffer to achieve even better memory traffic
 * reduction with modest throughput loss").
 *
 * Aggregation world, 1.5KB frames at line rate. Cases:
 *   baseline      default 1024-entry rings, static CAT;
 *   resq          rings sized so all queues fit two DDIO ways;
 *   iat           IAT with default rings;
 *   iat+512       IAT with half-size rings (the paper's suggestion).
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/agg_testpmd.hh"

namespace {

using namespace iat;

struct Row
{
    double tx_mpps = 0.0;
    double dram_gbps = 0.0;
    double ddio_miss_mps = 0.0;
    unsigned ddio_ways = 2;
};

Row
runCase(bool with_iat, std::uint32_t ring_entries, double scale,
        std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = 1500;
    cfg.ring_entries = ring_entries;
    cfg.seed = seed;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    const auto policy = core::makePolicy(
        with_iat ? core::PolicyKind::Iat : core::PolicyKind::Static,
        platform.pqos(), world.registry(), params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);

    engine.run(0.06 * scale);
    world.resetStats();
    const auto before = sim::PlatformSnapshot::capture(platform);
    const double window = 0.04 * scale;
    engine.run(window);
    const auto delta =
        sim::PlatformSnapshot::capture(platform).since(before);

    Row row;
    row.tx_mpps = world.txPackets() / window / 1e6;
    row.dram_gbps =
        (delta.dram_read_bytes + delta.dram_write_bytes) / window /
        1e9;
    row.ddio_miss_mps = delta.ddio_misses / window / 1e6;
    row.ddio_ways = platform.pqos().ddioGetWays().count();
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

    const cache::CacheGeometry geom;
    // ResQ sizes rings so *all* queues fit the two DDIO ways. With
    // only this world's two queues the bound is not binding (1024
    // already fits), so size for the paper's 20-container example,
    // which is where ResQ's drawback bites (SS III-A).
    const auto resq_entries =
        core::resqRingEntries(geom, 2, 1500, 20);

    TablePrinter table("Ablation: ResQ ring sizing vs IAT vs the "
                       "combination (1.5KB line rate)");
    table.setHeader({"case", "ring_entries", "tx_mpps", "dram_GB/s",
                     "ddio_miss_M/s", "ddio_ways"});

    struct Case
    {
        const char *name;
        bool iat;
        std::uint32_t ring;
    };
    const Case cases[] = {
        {"baseline", false, 1024},
        {"resq(20-VF sizing)", false, resq_entries},
        {"iat", true, 1024},
        {"iat+512ring", true, 512},
    };
    for (const auto &c : cases) {
        const auto row = runCase(c.iat, c.ring, scale, seed);
        table.addRow({c.name, std::to_string(c.ring),
                      TablePrinter::num(row.tx_mpps, 3),
                      TablePrinter::num(row.dram_gbps, 2),
                      TablePrinter::num(row.ddio_miss_mps, 2),
                      std::to_string(row.ddio_ways)});
        std::printf("  %s done\n", c.name);
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
