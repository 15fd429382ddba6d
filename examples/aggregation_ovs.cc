/**
 * @file
 * Aggregation-model example: an OVS-style virtual switch feeding
 * testpmd containers -- the world of the paper's Fig 8 -- with the
 * IAT daemon live and the packet size stepping up mid-run.
 *
 * Watch the daemon sit in Low Keep while 64B traffic fits the
 * default DDIO ways, then walk through I/O Demand to High Keep as
 * 1.5KB frames blow the mbuf footprint past two ways, converting
 * DDIO write-allocates back into write-updates.
 *
 * Run: ./build/examples/aggregation_ovs [--seconds=0.2]
 */

#include <cstdio>

#include "core/daemon.hh"
#include "scenarios/agg_testpmd.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double seconds = args.getDouble("seconds", 0.2);

    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::AggTestPmdConfig cfg;
    cfg.frame_bytes = 64;
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);

    core::IatParams params;
    params.interval_seconds = 5e-3;
    core::IatDaemon daemon(platform.pqos(), world.registry(), params,
                           world.model());
    engine.addPeriodic(params.interval_seconds,
                       [&](double now) { daemon.tick(now); }, 0.0);

    // Double the packet size every eighth of the run (the paper's
    // Fig 8 procedure).
    std::uint32_t frame = 64;
    engine.addPeriodic(seconds / 8.0, [&](double now) {
        if (frame < 1500) {
            frame = std::min(1500u, frame * 2);
            world.setFrameBytes(frame);
            std::printf("-- t=%.0fms: packet size -> %uB\n",
                        now * 1e3, frame);
        }
    });

    // Periodic report.
    rdt::DdioCounters prev = platform.pqos().ddioPollExact();
    engine.addPeriodic(seconds / 16.0, [&](double now) {
        const auto cur = platform.pqos().ddioPollExact();
        std::printf("t=%5.0fms state=%-10s ddio_ways=%u "
                    "hit=%6.2fM/s miss=%6.2fM/s tx=%llu\n",
                    now * 1e3, toString(daemon.state()),
                    daemon.ddioWays(),
                    (cur.hits - prev.hits) / (seconds / 16.0) / 1e6,
                    (cur.misses - prev.misses) /
                        (seconds / 16.0) / 1e6,
                    static_cast<unsigned long long>(
                        world.txPackets()));
        prev = cur;
    });

    engine.run(seconds);

    std::printf("\nfinal: state=%s ddio_ways=%u shuffles=%llu "
                "drops=%llu\n",
                toString(daemon.state()), daemon.ddioWays(),
                static_cast<unsigned long long>(daemon.shuffles()),
                static_cast<unsigned long long>(
                    world.totalDrops()));
    return 0;
}
