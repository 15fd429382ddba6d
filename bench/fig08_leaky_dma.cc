/**
 * @file
 * Figure 8: system performance vs packet size in the aggregation
 * world (SS VI-B "Solving the Leaky DMA problem").
 *
 * Two testpmd containers behind a two-core OVS, both NICs at line
 * rate, packet size swept 64B..1.5KB, baseline vs IAT. Reported per
 * configuration: DDIO hit and miss rates (Fig 8a/8b), DRAM
 * read+write bandwidth (Fig 8c), and the OVS cores' IPC and cycles
 * per packet (Fig 8d).
 *
 * Paper shape: small packets fit the default two DDIO ways (hits
 * high, misses low; IAT changes little). From ~512B up the mbuf
 * footprint outgrows two ways: baseline misses soar; IAT grows DDIO
 * toward 6 ways, converting misses back into hits, cutting memory
 * bandwidth (up to ~15%) and improving OVS IPC (~5%).
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/agg_testpmd.hh"

namespace {

using namespace iat;

struct Row
{
    double ddio_hit_mps = 0.0;
    double ddio_miss_mps = 0.0;
    double dram_gbps = 0.0;
    double ovs_ipc = 0.0;
    double ovs_cpp = 0.0;
    unsigned ddio_ways = 2;
};

Row
runCase(core::PolicyKind kind, std::uint32_t frame_bytes,
        double scale, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = frame_bytes;
    cfg.seed = seed;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    const auto policy =
        core::makePolicy(kind, platform.pqos(), world.registry(),
                         params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);

    engine.run(0.06 * scale); // settle (daemon ramps DDIO here)
    world.resetStats(); // zeroes the OVS stages' packet counts

    const auto before = sim::PlatformSnapshot::capture(platform);
    const double window = 0.04 * scale;
    engine.run(window);
    const auto delta =
        sim::PlatformSnapshot::capture(platform).since(before);
    const auto ovs = delta.sumCores(world.ovsCores());
    std::uint64_t pkts = 0;
    for (const auto *stage : world.ovsStages())
        pkts += stage->packetsProcessed();

    Row row;
    row.ddio_hit_mps = delta.ddio_hits / window / 1e6;
    row.ddio_miss_mps = delta.ddio_misses / window / 1e6;
    row.dram_gbps =
        (delta.dram_read_bytes + delta.dram_write_bytes) / window /
        1e9;
    row.ovs_ipc = bench::ipc(ovs);
    row.ovs_cpp = pkts > 0 ? static_cast<double>(ovs.cycles) /
                                 static_cast<double>(pkts)
                           : 0.0;
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

    TablePrinter table(
        "Figure 8: aggregation testpmd world vs packet size "
        "(both NICs line rate)");
    table.setHeader({"frame_bytes", "policy", "ddio_hit_M/s",
                     "ddio_miss_M/s", "dram_GB/s", "ovs_ipc",
                     "ovs_cpp", "ddio_ways"});

    for (std::uint32_t frame :
         {64u, 128u, 256u, 512u, 1024u, 1500u}) {
        for (const auto policy :
             {core::PolicyKind::Static, core::PolicyKind::Iat}) {
            const auto row = runCase(policy, frame, scale, seed);
            table.addRow({std::to_string(frame), toString(policy),
                          TablePrinter::num(row.ddio_hit_mps, 2),
                          TablePrinter::num(row.ddio_miss_mps, 2),
                          TablePrinter::num(row.dram_gbps, 2),
                          TablePrinter::num(row.ovs_ipc, 3),
                          TablePrinter::num(row.ovs_cpp, 0),
                          std::to_string(row.ddio_ways)});
            std::printf("  frame=%uB %s done\n", frame,
                        toString(policy));
            std::fflush(stdout);
        }
    }

    bench::finishBench(table, args);
    return 0;
}
