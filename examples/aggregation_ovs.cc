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
#include "fault/injector.hh"
#include "scenarios/agg_testpmd.hh"
#include "sim/stats_report.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double seconds = args.getDouble("seconds", 0.2);
    args.requireKnown();

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
    const auto policy =
        core::makePolicy(core::PolicyKind::Iat, platform.pqos(),
                         world.registry(), params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);
    const core::IatDaemon &daemon = *policy->daemon();

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
    auto prev = sim::PlatformSnapshot::capture(platform);
    engine.addPeriodic(seconds / 16.0, [&](double now) {
        const auto cur = sim::PlatformSnapshot::capture(platform);
        const auto delta = cur.since(prev);
        std::printf("t=%5.0fms state=%-10s ddio_ways=%u "
                    "hit=%6.2fM/s miss=%6.2fM/s tx=%llu\n",
                    now * 1e3, toString(daemon.state()),
                    daemon.ddioWays(),
                    delta.ddio_hits / (seconds / 16.0) / 1e6,
                    delta.ddio_misses / (seconds / 16.0) / 1e6,
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
