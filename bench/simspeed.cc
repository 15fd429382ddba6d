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
 * JSON against the per-mode baseline under bench/).
 *
 * Measurement runs a warmup leg and then --legs (default 3) equal
 * measurement legs of the same world; the reported speed is the
 * median per-leg rate, so one descheduling blip on a loaded CI
 * runner cannot fail the 15% gate. The event counts are totals over
 * the measured legs and stay bit-deterministic per mode.
 *
 * --llc-approx K runs the set-sampled approximate LLC (SlicedLlc
 * approx mode, K a power of two; 1 = exact). --compare-exact
 * additionally runs a second, exact world over the same scenario and
 * sim duration and reports the measured speedup plus the
 * figure-metric error (demand/DDIO hit rates, writebacks, RMID
 * occupancy, and scenario rx/tx throughput) in an "error_vs_exact"
 * JSON block -- the honest-error companion to the speed number.
 *
 * Because the event core (heap, traffic generation, stage services)
 * is not accelerated by set-sampling, end-to-end packet rate
 * understates what the cache model gained. A separate model leg
 * therefore drives the memory-system API (coreAccess / dmaWrite /
 * dmaRead) directly on fresh platforms -- no engine, no pipeline --
 * and reports cache-model ops per wall-second for the current mode
 * plus, in approx mode, the exact-model rate and the model-level
 * speedup. That is the number the ">= 5x" gate checks; the
 * end-to-end speedup is gated separately at its Amdahl-limited
 * expectation (see DESIGN.md).
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
#include "check/approx.hh"
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

/** One scenario instance: platform, engine, world and policy. */
struct WorldHandle
{
    std::unique_ptr<sim::Platform> platform;
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<scenarios::AggTestPmdWorld> world;
    core::IatParams params;
    std::unique_ptr<core::Policy> policy;
};

std::unique_ptr<WorldHandle>
buildWorld(const scenarios::AggTestPmdConfig &cfg,
           const std::string &policy_name, unsigned llc_approx)
{
    auto h = std::make_unique<WorldHandle>();
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    pc.llc_approx = llc_approx;
    h->platform = std::make_unique<sim::Platform>(pc);
    h->engine = std::make_unique<sim::Engine>(*h->platform);
    h->world = std::make_unique<scenarios::AggTestPmdWorld>(
        *h->platform, cfg);
    h->world->attach(*h->engine);
    h->policy = core::makePolicy(
        policy_name == "iat" ? core::PolicyKind::Iat
                             : core::PolicyKind::Static,
        h->platform->pqos(), h->world->registry(), h->params,
        h->world->model());
    fault::attachPolicy(*h->engine, *h->policy,
                        h->params.interval_seconds);
    return h;
}

/**
 * Cache-model throughput: drive the memory-system API directly with
 * a deterministic mixed op stream (reads, writes, DDIO writes,
 * device reads across 8 cores / 2 devices) over a DRAM-sized
 * footprint, bypassing the event core entirely. Returns ops per
 * wall-second; the first ops/8 are untimed warmup so the approx
 * mode's estimators have a population before the clock starts.
 */
double
modelOpsPerSec(unsigned llc_approx, std::uint64_t ops)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    pc.llc_approx = llc_approx;
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

double
relErr(double exact, double approx)
{
    if (exact == 0.0)
        return approx == 0.0 ? 0.0 : 1.0;
    return std::abs(approx - exact) / exact;
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
    const unsigned llc_approx = static_cast<unsigned>(
        args.getInt("llc-approx", 1));
    const bool compare_exact =
        args.getBool("compare-exact", false) && llc_approx > 1;
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

    auto h = buildWorld(cfg, policy_name, llc_approx);
    sim::Platform &platform = *h->platform;
    sim::Engine &engine = *h->engine;
    scenarios::AggTestPmdWorld &world = *h->world;

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

    // Warm up: fill rings, mbuf pools and the LLC into steady state
    // (and let the approx mode's estimators gather a population).
    if (warmup_s > 0.0)
        engine.run(warmup_s);

    // Measured legs: totals are deterministic per mode, the reported
    // rate is the median leg so one slow leg cannot gate-flake.
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

    // --compare-exact: a second, exact world over the same scenario
    // and sim duration, for the measured speedup and the honest
    // figure-metric error of the sampled model.
    check::ApproxErrors err;
    double exact_rate = 0.0;
    double rx_rel_err = 0.0, tx_rel_err = 0.0;
    std::uint64_t exact_rx = 0, exact_tx = 0;
    if (compare_exact) {
        auto ex = buildWorld(cfg, policy_name, 1);
        if (warmup_s > 0.0)
            ex->engine->run(warmup_s);
        const std::uint64_t ex_pkts0 =
            stagePackets(*ex->world->pipeline());
        const std::uint64_t ex_rx0 = ex->world->rxPackets();
        const std::uint64_t ex_tx0 = ex->world->txPackets();
        const auto t0 = Clock::now();
        ex->engine->run(measure_s * legs);
        const auto t1 = Clock::now();
        const double wall = wallSeconds(t0, t1);
        const std::uint64_t ex_pkts =
            stagePackets(*ex->world->pipeline()) - ex_pkts0;
        exact_rate = wall > 0.0 ? ex_pkts / wall : 0.0;
        exact_rx = ex->world->rxPackets() - ex_rx0;
        exact_tx = ex->world->txPackets() - ex_tx0;
        rx_rel_err = relErr(static_cast<double>(exact_rx),
                            static_cast<double>(res.rx_packets));
        tx_rel_err = relErr(static_cast<double>(exact_tx),
                            static_cast<double>(res.tx_packets));
        err = check::measureApproxErrors(ex->platform->llc(),
                                         platform.llc());
    }

    // Model leg: cache-model ops/s on fresh platforms (no engine),
    // isolating what the set-sampled model actually gained from the
    // unaccelerated event core. In approx mode the exact model is
    // measured too, for the model-level speedup the CI gate checks.
    double model_rate = 0.0, model_exact_rate = 0.0;
    if (model_ops > 0) {
        model_rate = modelOpsPerSec(llc_approx, model_ops);
        if (llc_approx > 1)
            model_exact_rate = modelOpsPerSec(1, model_ops);
    }

    TablePrinter table("Simulation speed (agg_testpmd, " +
                       policy_name + " policy, llc_approx=" +
                       std::to_string(llc_approx) + ")");
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
        if (llc_approx > 1) {
            table.addRow({"model_exact_ops_per_wall_s",
                          TablePrinter::num(model_exact_rate, 0)});
            table.addRow({"model_speedup",
                          TablePrinter::num(
                              model_exact_rate > 0.0
                                  ? model_rate / model_exact_rate
                                  : 0.0, 2)});
        }
    }
    if (compare_exact) {
        table.addRow({"exact pkts_per_wall_s",
                      TablePrinter::num(exact_rate, 0)});
        table.addRow({"speedup_vs_exact",
                      TablePrinter::num(
                          exact_rate > 0.0 ? median_rate / exact_rate
                                           : 0.0, 2)});
        table.addRow({"demand_hit_rate_err",
                      TablePrinter::num(err.demand_hit_rate_err, 4)});
        table.addRow({"ddio_hit_rate_err",
                      TablePrinter::num(err.ddio_hit_rate_err, 4)});
        table.addRow({"tx_packets_rel_err",
                      TablePrinter::num(tx_rel_err, 4)});
    }
    bench::finishBench(table, args);

    std::ofstream json(json_path);
    if (json) {
        char buf[1536];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "  \"scenario\": \"agg_testpmd\",\n"
            "  \"policy\": \"%s\",\n"
            "  \"containers\": %u,\n"
            "  \"frame_bytes\": %u,\n"
            "  \"llc_approx\": %u,\n"
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
            cfg.frame_bytes, llc_approx, legs, res.sim_seconds,
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
            if (llc_approx > 1) {
                std::snprintf(
                    buf, sizeof(buf),
                    ",\n  \"model_exact_ops_per_wall_s\": %.1f"
                    ",\n  \"model_speedup\": %.4f",
                    model_exact_rate,
                    model_exact_rate > 0.0
                        ? model_rate / model_exact_rate
                        : 0.0);
                json << buf;
            }
        }
        if (compare_exact) {
            std::snprintf(
                buf, sizeof(buf),
                ",\n"
                "  \"error_vs_exact\": {\n"
                "    \"exact_pkts_per_wall_s\": %.1f,\n"
                "    \"speedup\": %.4f,\n"
                "    \"demand_hit_rate_exact\": %.6f,\n"
                "    \"demand_hit_rate_approx\": %.6f,\n"
                "    \"demand_hit_rate_err\": %.6f,\n"
                "    \"ddio_hit_rate_exact\": %.6f,\n"
                "    \"ddio_hit_rate_approx\": %.6f,\n"
                "    \"ddio_hit_rate_err\": %.6f,\n"
                "    \"writebacks_exact\": %llu,\n"
                "    \"writebacks_approx\": %llu,\n"
                "    \"writeback_rel_err\": %.6f,\n"
                "    \"occupancy_rel_err\": %.6f,\n"
                "    \"rx_packets_exact\": %llu,\n"
                "    \"tx_packets_exact\": %llu,\n"
                "    \"rx_packets_rel_err\": %.6f,\n"
                "    \"tx_packets_rel_err\": %.6f\n"
                "  }",
                exact_rate,
                exact_rate > 0.0 ? median_rate / exact_rate : 0.0,
                err.demand_hit_rate_exact, err.demand_hit_rate_approx,
                err.demand_hit_rate_err, err.ddio_hit_rate_exact,
                err.ddio_hit_rate_approx, err.ddio_hit_rate_err,
                static_cast<unsigned long long>(err.writebacks_exact),
                static_cast<unsigned long long>(
                    err.writebacks_approx),
                err.writeback_rel_err, err.occupancy_rel_err,
                static_cast<unsigned long long>(exact_rx),
                static_cast<unsigned long long>(exact_tx),
                rx_rel_err, tx_rel_err);
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
