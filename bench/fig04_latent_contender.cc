/**
 * @file
 * Figure 4: the Latent Contender demonstration (SS III-B).
 *
 * An l3fwd container receives 40Gb traffic through DDIO while an
 * X-Mem container (random read) sweeps its working set from 4MB to
 * 16MB. Two placements: X-Mem on two dedicated ways vs on the two
 * ways DDIO write-allocates into. Paper shape: the overlap costs
 * X-Mem up to 26% throughput and 32% average latency even though no
 * core shares those ways.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/l3fwd.hh"
#include "util/units.hh"
#include "wl/xmem.hh"

namespace {

using namespace iat;

struct Sample
{
    double throughput_mbps = 0.0;
    double latency_ns = 0.0;
};

Sample
runCase(std::uint64_t wss, bool ddio_overlap, double scale,
        std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 4;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    // l3fwd at 1.5KB line rate on core 0, ways 0-1 (paper setup).
    scenarios::L3FwdConfig cfg;
    cfg.frame_bytes = 1500;
    cfg.rate_pps = net::lineRatePps40G(1500);
    cfg.seed = seed;
    scenarios::L3FwdWorld world(platform, cfg);
    world.attach(engine);

    auto &pqos = platform.pqos();
    pqos.l3caSet(1, cache::WayMask::fromRange(0, 2));
    pqos.allocAssocSet(0, 1);

    // X-Mem on core 1: dedicated ways 7-8, or DDIO's ways 9-10.
    wl::XMemWorkload xmem(platform, 1, "xmem", wss, 16 * MiB,
                          seed + 7);
    engine.add(&xmem);
    pqos.l3caSet(2, ddio_overlap ? cache::WayMask::fromRange(9, 2)
                                 : cache::WayMask::fromRange(7, 2));
    pqos.allocAssocSet(1, 2);

    engine.run(0.05 * scale);
    xmem.resetStats();
    engine.run(0.05 * scale);

    Sample s;
    s.throughput_mbps =
        xmem.avgThroughputBytesPerSec() / 1e6;
    s.latency_ns = xmem.avgLatencySeconds() * 1e9;
    return s;
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

    TablePrinter table("Figure 4: X-Mem vs DDIO way overlap "
                       "(l3fwd 40Gb background)");
    table.setHeader({"wss_mb", "placement", "throughput_MBps",
                     "avg_latency_ns", "tput_penalty_%",
                     "latency_penalty_%"});

    for (std::uint64_t wss_mb : {4u, 8u, 12u, 16u}) {
        const auto dedicated =
            runCase(wss_mb * MiB, false, scale, seed);
        const auto overlap =
            runCase(wss_mb * MiB, true, scale, seed);
        const double tput_pen =
            100.0 * (1.0 - overlap.throughput_mbps /
                               dedicated.throughput_mbps);
        const double lat_pen =
            100.0 * (overlap.latency_ns / dedicated.latency_ns -
                     1.0);
        table.addRow({std::to_string(wss_mb), "dedicated",
                      TablePrinter::num(dedicated.throughput_mbps, 1),
                      TablePrinter::num(dedicated.latency_ns, 1), "-",
                      "-"});
        table.addRow({std::to_string(wss_mb), "ddio-overlap",
                      TablePrinter::num(overlap.throughput_mbps, 1),
                      TablePrinter::num(overlap.latency_ns, 1),
                      TablePrinter::num(tput_pen, 1),
                      TablePrinter::num(lat_pen, 1)});
        std::printf("  wss=%lluMB done\n",
                    static_cast<unsigned long long>(wss_mb));
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
