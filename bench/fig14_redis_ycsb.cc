/**
 * @file
 * Figure 14: Redis performance under YCSB workloads A-F, normalized
 * to solo runs: throughput, average latency, and p99 tail latency.
 *
 * Paper shape: the baseline loses 7.1-24.5% throughput and gains
 * 7.9-26.5% average / 10.1-20.4% tail latency when a cache-hungry
 * co-runner happens to share DDIO's ways (hence a wide band over
 * placements), worst for the read-heavy mixes; IAT limits the
 * damage to single digits by growing DDIO and shuffling the hungry
 * tenant away.
 */

#include <cstdio>

#include "bench/common.hh"
#include "scenarios/corun.hh"

namespace {

using namespace iat;

struct RedisSample
{
    double ops_per_s = 0.0;
    double avg_latency_s = 0.0;
    double p99_latency_s = 0.0;
};

/** Redis's numbers over a pass's window. */
RedisSample
redisSample(scenarios::CorunWorld &world, double window)
{
    RedisSample s;
    s.ops_per_s = world.delivered() / window;
    const auto hist = world.latency();
    s.avg_latency_s = hist.mean();
    s.p99_latency_s = hist.percentile(0.99);
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

    TablePrinter table("Figure 14: Redis YCSB A-F normalized to "
                       "solo (throughput up = good, latency up = "
                       "bad)");
    table.setHeader({"ycsb", "policy", "norm_tput",
                     "norm_avg_latency", "norm_p99_latency"});

    for (char mix = 'A'; mix <= 'F'; ++mix) {
        scenarios::CorunConfig cfg;
        cfg.net_app = scenarios::CorunConfig::NetApp::Redis;
        cfg.pc_app = "rocksdb"; // the paper's cache-hungry PC co-runner
        cfg.redis_mix = mix;
        cfg.seed = seed;
        // Redis is the measured app, so its solo run keeps the
        // networking live.
        const auto solo = bench::corunPass(
            cfg, {.solo = true, .solo_networking = true}, scale,
            redisSample);
        // Baseline band over the three canonical placements.
        double tput_min = 1e30, tput_max = 0.0;
        double avg_min = 1e30, avg_max = 0.0;
        double p99_min = 1e30, p99_max = 0.0;
        for (int placement = 0; placement < 3; ++placement) {
            const auto b = bench::corunPass(
                cfg, {.placement = placement}, scale, redisSample);
            const double tput = b.ops_per_s / solo.ops_per_s;
            const double avg =
                b.avg_latency_s / solo.avg_latency_s;
            const double p99 =
                b.p99_latency_s / solo.p99_latency_s;
            tput_min = std::min(tput_min, tput);
            tput_max = std::max(tput_max, tput);
            avg_min = std::min(avg_min, avg);
            avg_max = std::max(avg_max, avg);
            p99_min = std::min(p99_min, p99);
            p99_max = std::max(p99_max, p99);
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f~%.3f", tput_min,
                      tput_max);
        std::string tput_band = buf;
        std::snprintf(buf, sizeof(buf), "%.3f~%.3f", avg_min,
                      avg_max);
        std::string avg_band = buf;
        std::snprintf(buf, sizeof(buf), "%.3f~%.3f", p99_min,
                      p99_max);
        std::string p99_band = buf;
        table.addRow({std::string(1, mix), "baseline", tput_band,
                      avg_band, p99_band});

        const auto iat = bench::corunPass(
            cfg, {.kind = core::PolicyKind::Iat}, scale, redisSample);
        table.addRow(
            {std::string(1, mix), "IAT",
             TablePrinter::num(iat.ops_per_s / solo.ops_per_s, 3),
             TablePrinter::num(
                 iat.avg_latency_s / solo.avg_latency_s, 3),
             TablePrinter::num(
                 iat.p99_latency_s / solo.p99_latency_s, 3)});
        std::printf("  YCSB-%c done\n", mix);
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
