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

RedisSample
runCase(core::PolicyKind kind, int placement, char mix, bool solo,
        double scale, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::CorunConfig cfg;
    cfg.net_app = scenarios::CorunConfig::NetApp::Redis;
    cfg.pc_app = "rocksdb"; // the paper's cache-hungry PC co-runner
    cfg.redis_mix = mix;
    cfg.seed = seed;
    scenarios::CorunWorld world(platform, cfg);
    world.attach(engine);

    std::unique_ptr<core::Policy> policy;
    if (solo) {
        world.setBackgroundActive(false);
        // PC app paused too: Redis runs alone with the switch.
        world.applyDeterministicPlacement(0);
    } else if (kind == core::PolicyKind::Static) {
        world.applyDeterministicPlacement(placement);
    } else {
        core::IatParams params;
        params.interval_seconds = 5e-3;
        policy =
            core::makePolicy(kind, platform.pqos(), world.registry(),
                             params, world.model());
        fault::attachPolicy(engine, *policy, params.interval_seconds);
        if (auto *daemon = policy->daemon())
            daemon->setTenantTuningEnabled(false);
    }

    engine.run(0.04 * scale);
    world.resetStats();
    const double window = 0.08 * scale;
    engine.run(window);

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

    TablePrinter table("Figure 14: Redis YCSB A-F normalized to "
                       "solo (throughput up = good, latency up = "
                       "bad)");
    table.setHeader({"ycsb", "policy", "norm_tput",
                     "norm_avg_latency", "norm_p99_latency"});

    for (char mix = 'A'; mix <= 'F'; ++mix) {
        const auto solo = runCase(core::PolicyKind::Static, 0, mix,
                                  true, scale, seed);
        // Baseline band over the three canonical placements.
        double tput_min = 1e30, tput_max = 0.0;
        double avg_min = 1e30, avg_max = 0.0;
        double p99_min = 1e30, p99_max = 0.0;
        for (int placement = 0; placement < 3; ++placement) {
            const auto b = runCase(core::PolicyKind::Static,
                                   placement, mix, false, scale,
                                   seed);
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

        const auto iat = runCase(core::PolicyKind::Iat, 0, mix, false,
                                 scale, seed);
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
