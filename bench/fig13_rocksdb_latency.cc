/**
 * @file
 * Figure 13: normalized weighted YCSB latency of RocksDB co-running
 * with Redis or the FastClick chain.
 *
 * For each YCSB mix A-F the per-operation-kind mean latencies are
 * normalized to the solo run and combined with the mix's operation
 * weights ("normalized weighted latency"). Paper shape: baseline up
 * to 14.1% (vs Redis) / 19.7% (vs FastClick) longer; IAT holds it
 * to ~6.4% / ~9.9%.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/corun.hh"

namespace {

using namespace iat;

/** Mean latency per op kind over a pass's window. */
std::array<double, 5>
kindLatencies(scenarios::CorunWorld &world, double)
{
    std::array<double, 5> means{};
    for (unsigned k = 0; k < 5; ++k) {
        means[k] = world.rocksdb()
                       ->opKindLatency(static_cast<wl::YcsbOp>(k))
                       .mean();
    }
    return means;
}

/** Weighted normalized latency vs the solo means. */
double
weightedNorm(const std::array<double, 5> &corun,
             const std::array<double, 5> &solo, char mix_id)
{
    const auto &mix = wl::ycsbWorkload(mix_id);
    const double weights[5] = {mix.read, mix.update, mix.insert,
                               mix.scan, mix.rmw};
    double acc = 0.0, wsum = 0.0;
    for (unsigned k = 0; k < 5; ++k) {
        if (weights[k] <= 0.0 || solo[k] <= 0.0)
            continue;
        acc += weights[k] * (corun[k] / solo[k]);
        wsum += weights[k];
    }
    return wsum > 0.0 ? acc / wsum : 1.0;
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

    TablePrinter table(
        "Figure 13: RocksDB normalized weighted YCSB latency "
        "(1.0 = solo)");
    table.setHeader({"ycsb", "net_app", "baseline_min",
                     "baseline_max", "IAT"});

    std::vector<scenarios::CorunConfig::NetApp> nets = {
        scenarios::CorunConfig::NetApp::Redis};
    if (!redis_only)
        nets.push_back(scenarios::CorunConfig::NetApp::NfvChain);

    for (char mix = 'A'; mix <= 'F'; ++mix) {
        for (const auto net : nets) {
            scenarios::CorunConfig cfg;
            cfg.net_app = net;
            cfg.pc_app = "rocksdb";
            cfg.rocksdb_mix = mix;
            cfg.seed = seed;
            const auto solo = bench::corunPass(cfg, {.solo = true},
                                               scale, kindLatencies);
            double base_min = 1e30, base_max = 0.0;
            for (int placement = 0; placement < 3; ++placement) {
                const auto corun = bench::corunPass(
                    cfg, {.placement = placement}, scale,
                    kindLatencies);
                const double norm = weightedNorm(corun, solo, mix);
                base_min = std::min(base_min, norm);
                base_max = std::max(base_max, norm);
            }
            const auto iat = bench::corunPass(
                cfg, {.kind = core::PolicyKind::Iat}, scale,
                kindLatencies);
            const char *net_name =
                net == scenarios::CorunConfig::NetApp::Redis
                    ? "redis"
                    : "fastclick";
            table.addRow({std::string(1, mix), net_name,
                          TablePrinter::num(base_min, 3),
                          TablePrinter::num(base_max, 3),
                          TablePrinter::num(
                              weightedNorm(iat, solo, mix), 3)});
            std::printf("  YCSB-%c vs %s done\n", mix, net_name);
            std::fflush(stdout);
        }
    }

    bench::finishBench(table, args);
    return 0;
}
