/**
 * @file
 * Simulator-speed smoke benchmark: how fast the simulator itself
 * runs, measured on the agg_testpmd world (two line-rate NICs, a
 * two-core OVS and N testpmd containers -- the paper's SS VI-B
 * setup and the configuration every sweep spends most of its wall
 * clock in).
 *
 * Reports simulated packets per wall-second (every stage service
 * counts one packet event, so OVS + testpmd each count), engine
 * quanta per wall-second, and the sim-time / wall-time ratio, and
 * writes them as JSON (--json=<path>, default BENCH_simspeed.json)
 * for the CI regression gate (tools/check_simspeed.py compares the
 * JSON against bench/simspeed_baseline.json).
 *
 * Measurement runs a warmup leg and then --legs (default 3) equal
 * measurement legs of the same world; the reported speed is the
 * median per-leg rate, so one descheduling blip on a loaded CI
 * runner cannot fail the 15% gate. The event counts are totals over
 * the measured legs and stay bit-deterministic.
 *
 * A separate model leg drives the memory-system API (coreAccess /
 * dmaWrite / dmaRead) directly on a fresh platform -- no engine, no
 * pipeline -- and reports cache-model ops per wall-second, the cache
 * model's own speed without the event core around it.
 *
 * The speed numbers are also registered as registry gauges
 * (simspeed.pkts_per_wall_s, simspeed.quanta_per_wall_s,
 * simspeed.sim_wall_ratio), refreshed once per sample interval from
 * wall-clock deltas, so a --metrics run gets a live time series of
 * simulation speed next to the platform metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "scenarios/agg_testpmd.hh"

namespace {

using namespace iat;
using Clock = std::chrono::steady_clock;

double
wallSeconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Sum of per-stage service counts: one per packet *event*. */
std::uint64_t
stagePackets(const net::PacketPipeline &pipeline)
{
    std::uint64_t total = 0;
    for (const auto &stage : pipeline.stages())
        total += stage->packetsProcessed();
    return total;
}

struct Result
{
    double sim_seconds = 0.0;
    double wall_seconds = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t quanta = 0;

    double
    pktsPerWallSec() const
    {
        return wall_seconds > 0.0 ? packets / wall_seconds : 0.0;
    }
    double
    quantaPerWallSec() const
    {
        return wall_seconds > 0.0 ? quanta / wall_seconds : 0.0;
    }
    double
    simWallRatio() const
    {
        return wall_seconds > 0.0 ? sim_seconds / wall_seconds : 0.0;
    }
};

/**
 * Cache-model throughput: drive the memory-system API directly with
 * a deterministic mixed op stream (reads, writes, DDIO writes,
 * device reads across 8 cores / 2 devices) over a DRAM-sized
 * footprint, bypassing the event core entirely. Returns ops per
 * wall-second; the first ops/8 are untimed warmup.
 */
double
modelOpsPerSec(std::uint64_t ops)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    // 8 GiB footprint: large against the LLC so the op stream has a
    // realistic miss/writeback mix rather than hitting forever.
    constexpr std::uint64_t kFootprintLines = 1ull << 27;
    auto runOps = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const cache::Addr addr =
                (next() & (kFootprintLines - 1)) * 64;
            const auto core =
                static_cast<cache::CoreId>((i >> 3) & 7);
            switch (i & 7) {
              case 0:
              case 1:
              case 2:
              case 3:
                platform.coreAccess(core, addr,
                                    cache::AccessType::Read);
                break;
              case 4:
              case 5:
                platform.coreAccess(core, addr,
                                    cache::AccessType::Write);
                break;
              case 6:
                platform.dmaWrite(static_cast<cache::DeviceId>(i & 1),
                                  addr, 64);
                break;
              default:
                platform.dmaRead(static_cast<cache::DeviceId>(i & 1),
                                 addr, 64);
                break;
            }
        }
    };
    runOps(ops / 8); // warmup
    const auto t0 = Clock::now();
    runOps(ops);
    const auto t1 = Clock::now();
    const double wall = wallSeconds(t0, t1);
    return wall > 0.0 ? ops / wall : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 != 0 ? v[n / 2]
                                : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const double scale = bench::quickScale(args);
    const double warmup_s = args.getDouble("warmup", 0.01) * scale;
    const double measure_s = args.getDouble("seconds", 0.1) * scale;
    const unsigned legs =
        std::max(1, static_cast<int>(args.getInt("legs", 3)));
    const std::uint64_t model_ops = static_cast<std::uint64_t>(
        args.getInt("model-ops", 500000));
    const std::string json_path =
        args.getString("json", "BENCH_simspeed.json");
    const std::string policy_name =
        args.getString("policy", "baseline");

    scenarios::AggTestPmdConfig cfg;
    cfg.num_containers = static_cast<unsigned>(
        args.getInt("containers", 2));
    cfg.frame_bytes =
        static_cast<std::uint32_t>(args.getInt("frame-bytes", 64));
    cfg.flows =
        static_cast<std::uint64_t>(args.getInt("flows", 1));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));

    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);
    scenarios::AggTestPmdWorld world(platform, cfg);
    world.attach(engine);
    core::IatParams params;
    const auto policy = core::makePolicy(
        policy_name == "iat" ? core::PolicyKind::Iat
                             : core::PolicyKind::Static,
        platform.pqos(), world.registry(), params, world.model());
    fault::attachPolicy(engine, *policy, params.interval_seconds);

    // Live speed gauges: refreshed per sample from wall deltas.
    auto telemetry = obs::makeTelemetry(args);
    Result live;
    Clock::time_point live_t0 = Clock::now();
    double live_sim0 = platform.now();
    std::uint64_t live_pkts0 = 0;
    if (telemetry) {
        auto &m = telemetry->metrics();
        m.gauge("simspeed.pkts_per_wall_s",
                [&] { return live.pktsPerWallSec(); });
        m.gauge("simspeed.quanta_per_wall_s",
                [&] { return live.quantaPerWallSec(); });
        m.gauge("simspeed.sim_wall_ratio",
                [&] { return live.simWallRatio(); });
        world.pipeline()->setTelemetry(telemetry.get());
        engine.attachTelemetry(telemetry.get());
        const double interval =
            telemetry->sampleInterval(measure_s / 20.0);
        engine.addPeriodic(interval, [&](double) {
            const auto wall_now = Clock::now();
            live.wall_seconds = wallSeconds(live_t0, wall_now);
            live.sim_seconds = platform.now() - live_sim0;
            const std::uint64_t pkts = stagePackets(*world.pipeline());
            live.packets = pkts - live_pkts0;
            live.quanta = static_cast<std::uint64_t>(
                live.sim_seconds /
                platform.config().quantum_seconds + 0.5);
            live_t0 = wall_now;
            live_sim0 = platform.now();
            live_pkts0 = pkts;
        });
        sim::installPlatformSampler(engine, platform, *telemetry,
                                    interval);
    }

    // Warm up: fill rings, mbuf pools and the LLC into steady state.
    if (warmup_s > 0.0)
        engine.run(warmup_s);

    // Measured legs: totals are deterministic, the reported rate is
    // the median leg so one slow leg cannot gate-flake.
    Result res;
    std::vector<double> leg_wall, leg_rate;
    const std::uint64_t pkts0 = stagePackets(*world.pipeline());
    const std::uint64_t rx0 = world.rxPackets();
    const std::uint64_t tx0 = world.txPackets();
    const double sim0 = platform.now();
    for (unsigned leg = 0; leg < legs; ++leg) {
        const std::uint64_t leg_pkts0 =
            stagePackets(*world.pipeline());
        const auto t0 = Clock::now();
        engine.run(measure_s);
        const auto t1 = Clock::now();
        const double wall = wallSeconds(t0, t1);
        const std::uint64_t leg_pkts =
            stagePackets(*world.pipeline()) - leg_pkts0;
        leg_wall.push_back(wall);
        leg_rate.push_back(wall > 0.0 ? leg_pkts / wall : 0.0);
        res.wall_seconds += wall;
    }
    res.sim_seconds = platform.now() - sim0;
    res.packets = stagePackets(*world.pipeline()) - pkts0;
    res.rx_packets = world.rxPackets() - rx0;
    res.tx_packets = world.txPackets() - tx0;
    res.quanta = static_cast<std::uint64_t>(
        res.sim_seconds / platform.config().quantum_seconds + 0.5);
    const double median_rate = median(leg_rate);

    // Model leg: cache-model ops/s on a fresh platform (no engine).
    const double model_rate =
        model_ops > 0 ? modelOpsPerSec(model_ops) : 0.0;

    TablePrinter table("Simulation speed (agg_testpmd, " +
                       policy_name + " policy)");
    table.setHeader({"metric", "value"});
    table.addRow({"sim_seconds", TablePrinter::num(res.sim_seconds, 4)});
    table.addRow({"wall_seconds",
                  TablePrinter::num(res.wall_seconds, 4)});
    table.addRow({"legs", std::to_string(legs)});
    table.addRow({"stage_packet_events",
                  std::to_string(res.packets)});
    table.addRow({"rx_packets", std::to_string(res.rx_packets)});
    table.addRow({"tx_packets", std::to_string(res.tx_packets)});
    table.addRow({"pkts_per_wall_s (median leg)",
                  TablePrinter::num(median_rate, 0)});
    table.addRow({"quanta_per_wall_s",
                  TablePrinter::num(res.quantaPerWallSec(), 0)});
    table.addRow({"sim_wall_ratio",
                  TablePrinter::num(res.simWallRatio(), 6)});
    if (model_ops > 0) {
        table.addRow({"model_ops_per_wall_s",
                      TablePrinter::num(model_rate, 0)});
    }
    bench::finishBench(table, args);

    std::ofstream json(json_path);
    if (json) {
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "  \"scenario\": \"agg_testpmd\",\n"
            "  \"policy\": \"%s\",\n"
            "  \"containers\": %u,\n"
            "  \"frame_bytes\": %u,\n"
            "  \"legs\": %u,\n"
            "  \"sim_seconds\": %.6f,\n"
            "  \"wall_seconds\": %.6f,\n"
            "  \"stage_packet_events\": %llu,\n"
            "  \"rx_packets\": %llu,\n"
            "  \"tx_packets\": %llu,\n"
            "  \"quanta\": %llu,\n"
            "  \"pkts_per_wall_s\": %.1f,\n"
            "  \"quanta_per_wall_s\": %.1f,\n"
            "  \"sim_wall_ratio\": %.8f",
            policy_name.c_str(), cfg.num_containers,
            cfg.frame_bytes, legs, res.sim_seconds,
            res.wall_seconds,
            static_cast<unsigned long long>(res.packets),
            static_cast<unsigned long long>(res.rx_packets),
            static_cast<unsigned long long>(res.tx_packets),
            static_cast<unsigned long long>(res.quanta),
            median_rate, res.quantaPerWallSec(),
            res.simWallRatio());
        json << buf;
        if (model_ops > 0) {
            std::snprintf(buf, sizeof(buf),
                          ",\n  \"model_ops\": %llu"
                          ",\n  \"model_ops_per_wall_s\": %.1f",
                          static_cast<unsigned long long>(model_ops),
                          model_rate);
            json << buf;
        }
        json << "\n}\n";
        std::printf("json written to %s\n", json_path.c_str());
    } else {
        std::printf("warning: could not write %s\n",
                    json_path.c_str());
    }

    bench::finishTelemetry(telemetry.get());
    return 0;
}
