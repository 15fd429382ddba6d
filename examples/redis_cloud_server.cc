/**
 * @file
 * Cloud-server example: the paper's SS VI-C consolidation scenario.
 * Networked Redis serving YCSB behind a virtual switch shares the
 * socket with a SPEC-profile PC app and two best-effort X-Mem
 * tenants. The demo compares a hostile static placement (the hungry
 * co-runner parked on DDIO's ways) against IAT, reporting Redis
 * throughput/latency and the PC app's progress.
 *
 * Run: ./build/examples/redis_cloud_server [--app=mcf] [--mix=B]
 */

#include <cstdio>
#include <string>

#include "core/daemon.hh"
#include "fault/injector.hh"
#include "scenarios/corun.hh"
#include "util/cli.hh"

namespace {

using namespace iat;

struct Result
{
    double redis_kops = 0.0;
    double redis_p99_us = 0.0;
    double pc_progress = 0.0;
};

Result
runOnce(bool with_iat, const std::string &app, char mix,
        double scale)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);

    scenarios::CorunConfig cfg;
    cfg.net_app = scenarios::CorunConfig::NetApp::Redis;
    cfg.pc_app = app;
    cfg.redis_mix = mix;
    scenarios::CorunWorld world(platform, cfg);
    world.attach(engine);

    std::unique_ptr<core::Policy> policy;
    if (with_iat) {
        core::IatParams params;
        params.interval_seconds = 5e-3;
        policy = core::makePolicy(core::PolicyKind::Iat,
                                  platform.pqos(), world.registry(),
                                  params, world.model());
        policy->daemon()->setTenantTuningEnabled(false); // SS VI-C
        fault::attachPolicy(engine, *policy, params.interval_seconds);
    } else {
        // Hostile placement: the PC app lands on DDIO's ways.
        world.applyDeterministicPlacement(1);
    }

    engine.run(0.05 * scale);
    world.resetStats();
    const double window = 0.08 * scale;
    engine.run(window);

    Result r;
    r.redis_kops = world.delivered() / window / 1e3;
    r.redis_p99_us = world.latency().percentile(0.99) * 1e6;
    r.pc_progress = static_cast<double>(world.pcAppProgress());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const std::string app = args.getString("app", "mcf");
    const std::string mix_str = args.getString("mix", "B");
    const char mix = mix_str.empty() ? 'B' : mix_str[0];
    const double scale = args.getDouble("scale", 1.0);
    args.requireKnown();

    std::printf("Consolidated cloud server: Redis(YCSB-%c) + %s + "
                "2x X-Mem\n\n",
                mix, app.c_str());
    const auto base = runOnce(false, app, mix, scale);
    const auto iat = runOnce(true, app, mix, scale);

    std::printf("%-28s %14s %14s\n", "", "baseline(worst)", "IAT");
    std::printf("%-28s %11.1f %14.1f\n", "redis throughput (kops/s)",
                base.redis_kops, iat.redis_kops);
    std::printf("%-28s %11.1f %14.1f\n", "redis p99 latency (us)",
                base.redis_p99_us, iat.redis_p99_us);
    std::printf("%-28s %11.0f %14.0f\n",
                (app + " progress (ops)").c_str(),
                base.pc_progress, iat.pc_progress);
    std::printf("\nIAT: +%.1f%% redis throughput, %.1f%% lower p99, "
                "+%.1f%% app progress\n",
                100.0 * (iat.redis_kops / base.redis_kops - 1.0),
                100.0 * (1.0 - iat.redis_p99_us /
                                   base.redis_p99_us),
                100.0 * (iat.pc_progress / base.pc_progress - 1.0));
    return 0;
}
