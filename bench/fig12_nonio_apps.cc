/**
 * @file
 * Figure 12: normalized execution time of the non-networking
 * applications (SPEC2006 profiles and RocksDB) co-running with the
 * networking workloads (Redis behind OVS, or the FastClick chain).
 *
 * The paper runs each case ten times with the non-networking way
 * placement randomly shuffled and reports the min-max band; the
 * model evaluates the three canonical placements spanning that band
 * (nobody / the PC app / the hungry BE X-Mem on DDIO's ways), which
 * bound the same spread deterministically.
 *
 * Paper shape: baseline degradation 2.5-14.8% (Redis) and 3.5-24.9%
 * (FastClick) with a wide band; IAT holds every app within ~5%.
 */

#include <cstdio>
#include <map>

#include "bench/common.hh"
#include "scenarios/corun.hh"

namespace {

using namespace iat;

/** Progress of the PC app over a pass's window. */
double
pcProgress(scenarios::CorunWorld &world, double)
{
    return static_cast<double>(world.pcAppProgress());
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
    const bool redis_only = args.getBool("redis-only");
    bench::requireBenchFlags(args);

    std::vector<std::string> apps;
    for (const auto &profile : wl::spec2006Profiles())
        apps.push_back(profile.name);
    apps.push_back("rocksdb");

    TablePrinter table(
        "Figure 12: normalized execution time of non-networking "
        "apps (1.0 = solo; baseline band over placements)");
    table.setHeader({"app", "net_app", "baseline_min",
                     "baseline_max", "IAT"});

    std::vector<scenarios::CorunConfig::NetApp> nets = {
        scenarios::CorunConfig::NetApp::Redis};
    if (!redis_only)
        nets.push_back(scenarios::CorunConfig::NetApp::NfvChain);

    for (const auto &app : apps) {
        // Solo progress is independent of the networking mode.
        scenarios::CorunConfig solo_cfg;
        solo_cfg.pc_app = app;
        solo_cfg.seed = seed;
        const double solo = bench::corunPass(solo_cfg, {.solo = true},
                                             scale, pcProgress);

        for (const auto net : nets) {
            scenarios::CorunConfig cfg;
            cfg.net_app = net;
            cfg.pc_app = app;
            cfg.seed = seed;

            double base_min = 1e30, base_max = 0.0;
            for (int placement = 0; placement < 3; ++placement) {
                const double p = bench::corunPass(
                    cfg, {.placement = placement}, scale, pcProgress);
                const double norm = solo / std::max(p, 1.0);
                base_min = std::min(base_min, norm);
                base_max = std::max(base_max, norm);
            }
            const double iat_p = bench::corunPass(
                cfg, {.kind = core::PolicyKind::Iat}, scale,
                pcProgress);
            const double iat_norm = solo / std::max(iat_p, 1.0);

            const char *net_name =
                net == scenarios::CorunConfig::NetApp::Redis
                    ? "redis"
                    : "fastclick";
            table.addRow({app, net_name,
                          TablePrinter::num(base_min, 3),
                          TablePrinter::num(base_max, 3),
                          TablePrinter::num(iat_norm, 3)});
            std::printf("  %s vs %s done\n", app.c_str(), net_name);
            std::fflush(stdout);
        }
    }

    bench::finishBench(table, args);
    return 0;
}
