/**
 * @file
 * Ablation of the paper's SS VII "future DDIO" proposals, which the
 * model implements as optional hardware features:
 *
 *  (a) application-aware DDIO -- deliver only packet headers through
 *      the DDIO path, payload to DRAM. Evaluated on the aggregation
 *      world at 1.5KB line rate: kills DDIO-way thrash at the cost
 *      of payload reads from DRAM.
 *  (b) device-aware DDIO -- per-device way masks. Evaluated with a
 *      quiet small-frame device next to a flooding large-frame
 *      device: isolation preserves the quiet device's write-update
 *      (hit) rate.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/agg_testpmd.hh"
#include "wl/handlers.hh"

namespace {

using namespace iat;

// ---------------------------------------------------------------- (a)

struct SplitRow
{
    double tx_mpps = 0.0;
    double dram_gbps = 0.0;
    double ddio_miss_mps = 0.0;
    double ovs_cpp = 0.0;
};

SplitRow
runSplitCase(std::uint64_t header_bytes, double scale,
             std::uint64_t seed)
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
    scenarios::applyStaticLayout(platform.pqos(), world.registry());
    for (unsigned n = 0; n < world.nicCount(); ++n)
        world.nic(n).setDdioHeaderSplit(header_bytes);

    engine.run(0.05 * scale);
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

    SplitRow row;
    row.tx_mpps = world.txPackets() / window / 1e6;
    row.dram_gbps =
        (delta.dram_read_bytes + delta.dram_write_bytes) / window /
        1e9;
    row.ddio_miss_mps = delta.ddio_misses / window / 1e6;
    row.ovs_cpp = pkts > 0 ? static_cast<double>(ovs.cycles) /
                                 static_cast<double>(pkts)
                           : 0.0;
    return row;
}

// ---------------------------------------------------------------- (b)

struct DeviceRow
{
    double quiet_hit_fraction = 0.0;
};

DeviceRow
runDeviceCase(bool per_device_masks, double scale,
              std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 4;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    // Quiet latency device: small frames, small resident pool.
    net::TrafficConfig quiet;
    quiet.frame_bytes = 128;
    quiet.rate_pps = 5e5;
    quiet.burst_size = 1;
    net::NicQueue quiet_nic(platform, 0, "quiet", quiet, 128, 1.0,
                            seed);
    wl::TestPmdHandler quiet_pmd(
        platform, 0, wl::ForwardPort{nullptr, &quiet_nic});

    // Flooding batch device: large frames at line rate.
    net::TrafficConfig noisy;
    noisy.frame_bytes = 1500;
    noisy.rate_pps = net::lineRatePps40G(1500);
    net::NicQueue noisy_nic(platform, 1, "noisy", noisy, 1024, 2.0,
                            seed + 1);
    wl::TestPmdHandler noisy_pmd(
        platform, 1, wl::ForwardPort{nullptr, &noisy_nic});

    if (per_device_masks) {
        // SS VII: the latency device keeps a private way; the batch
        // device gets the other.
        platform.pqos().ddioSetDeviceWays(
            0, cache::WayMask::fromRange(10, 1));
        platform.pqos().ddioSetDeviceWays(
            1, cache::WayMask::fromRange(9, 1));
    }

    net::PacketPipeline pipeline(platform);
    pipeline.addSource(&quiet_nic);
    pipeline.addSource(&noisy_nic);
    pipeline.addStage(0, quiet_pmd, {&quiet_nic.rxRing()}, "quiet");
    pipeline.addStage(1, noisy_pmd, {&noisy_nic.rxRing()}, "noisy");
    engine.add(&pipeline);

    engine.run(0.05 * scale);
    const auto before = sim::PlatformSnapshot::capture(platform);
    engine.run(0.05 * scale);
    const auto dev0 = sim::PlatformSnapshot::capture(platform)
                          .since(before)
                          .devices[0];

    DeviceRow row;
    const auto writes = dev0.ddio_hits + dev0.ddio_misses;
    row.quiet_hit_fraction =
        writes > 0 ? static_cast<double>(dev0.ddio_hits) /
                         static_cast<double>(writes)
                   : 0.0;
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

    TablePrinter split_table(
        "Future-DDIO ablation (a): header-split DDIO, aggregation "
        "world at 1.5KB line rate");
    split_table.setHeader({"ddio_bytes_per_frame", "tx_mpps",
                           "dram_GB/s", "ddio_miss_M/s", "ovs_cpp"});
    for (std::uint64_t header : {0ull, 128ull, 256ull}) {
        const auto row = runSplitCase(header, scale, seed);
        split_table.addRow(
            {header == 0 ? "full-frame" : std::to_string(header),
             TablePrinter::num(row.tx_mpps, 3),
             TablePrinter::num(row.dram_gbps, 2),
             TablePrinter::num(row.ddio_miss_mps, 2),
             TablePrinter::num(row.ovs_cpp, 0)});
        std::printf("  header=%llu done\n",
                    static_cast<unsigned long long>(header));
        std::fflush(stdout);
    }
    split_table.print();

    TablePrinter dev_table(
        "Future-DDIO ablation (b): device-aware DDIO masks, quiet "
        "128B device vs flooding 1.5KB device");
    dev_table.setHeader({"config", "quiet_dev_ddio_hit_fraction"});
    for (const bool isolated : {false, true}) {
        const auto row = runDeviceCase(isolated, scale, seed);
        dev_table.addRow(
            {isolated ? "per-device masks" : "shared 2 ways",
             TablePrinter::num(row.quiet_hit_fraction, 3)});
    }
    bench::finishBench(dev_table, args);
    return 0;
}
