/**
 * @file
 * Slicing-model example: SR-IOV testpmd VFs at line rate next to a
 * latency-sensitive X-Mem tenant -- the Latent Contender scenario of
 * the paper's SS III-B, with IAT protecting the victim.
 *
 * The demo runs the same phase script as Fig 10 (the PC X-Mem's
 * working set jumps, then the DDIO region is widened under the
 * daemon's feet) and prints the victim's latency with and without
 * IAT, plus the shuffles the daemon performed.
 *
 * Run: ./build/examples/slicing_noisy_neighbor
 */

#include <cstdio>

#include "core/daemon.hh"
#include "fault/injector.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "util/cli.hh"
#include "util/units.hh"

namespace {

using namespace iat;

double
runOnce(bool with_iat, double scale)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::SlicingPmdXmemConfig cfg;
    cfg.frame_bytes = 1500;
    scenarios::SlicingPmdXmemWorld world(platform, cfg);
    world.attach(engine);

    // IAT without DDIO tuning (paper footnote 3), or static CAT, the
    // paper's baseline.
    core::IatParams params;
    params.interval_seconds = 5e-3;
    const auto policy = core::makePolicy(
        with_iat ? core::PolicyKind::IatNoDdio
                 : core::PolicyKind::Static,
        platform.pqos(), world.registry(), params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);
    const core::IatDaemon *daemon = policy->daemon();

    engine.at(0.05 * scale,
              [&](double) { world.growXmem4(10 * MiB); });
    engine.at(0.15 * scale, [&](double) {
        platform.pqos().ddioSetWays(cache::WayMask::fromRange(7, 4));
    });

    engine.run(0.22 * scale);
    world.xmem(2).resetStats();
    engine.run(0.06 * scale);

    if (daemon) {
        std::printf("  [IAT] final state=%s, xmem4 ways=%u, "
                    "shuffles=%llu\n",
                    toString(daemon->state()),
                    daemon->allocator().tenantWays(
                        scenarios::SlicingPmdXmemWorld::kTenantXmem4),
                    static_cast<unsigned long long>(
                        daemon->shuffles()));
    }
    return world.xmem(2).avgLatencySeconds() * 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double scale = args.getDouble("scale", 1.0);
    args.requireKnown();

    std::printf("Latent Contender demo: 1.5KB line-rate VFs vs a "
                "PC X-Mem tenant\n");
    std::printf("running baseline (static CAT)...\n");
    const double base_ns = runOnce(false, scale);
    std::printf("running with IAT...\n");
    const double iat_ns = runOnce(true, scale);

    std::printf("\nPC X-Mem average read latency after both phase "
                "changes:\n");
    std::printf("  baseline: %7.1f ns\n", base_ns);
    std::printf("  IAT:      %7.1f ns  (%.1f%% lower)\n", iat_ns,
                100.0 * (1.0 - iat_ns / base_ns));
    return 0;
}
