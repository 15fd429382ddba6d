/**
 * @file
 * Figure 15: IAT daemon execution time per iteration vs tenant
 * count, for one and two cores per tenant, split into Stable (Poll
 * Prof Data only) and Unstable (Poll + State Transition + LLC
 * Re-alloc) iterations.
 *
 * The paper measures the daemon on real hardware where the cost is
 * dominated by ring-0 MSR accesses through the msr kernel module
 * (~usec each with the context switch). The model counts the exact
 * register accesses the daemon issues through the emulated bus and
 * charges a calibrated per-access cost on top of the measured logic
 * time (see EXPERIMENTS.md for the calibration note).
 *
 * Paper shape: time grows sublinearly with monitored cores; for the
 * same core count, fewer tenants is cheaper; Poll dominates; the
 * worst case stays well under a millisecond.
 */

#include <cstdio>

#include "bench/common.hh"
#include "core/daemon.hh"
#include "sim/platform.hh"

namespace {

using namespace iat;

/** Calibrated ring-0 MSR access cost (rdmsr/wrmsr via /dev/msr). */
constexpr double kMsrAccessSeconds = 2.0e-6;

struct OverheadSample
{
    double stable_us = 0.0;
    double unstable_us = 0.0;
    double poll_share = 0.0;
    std::uint64_t stable_count = 0;
    std::uint64_t unstable_count = 0;
};

OverheadSample
measure(unsigned tenants, unsigned cores_per_tenant,
        unsigned iterations, obs::Telemetry *telemetry)
{
    sim::PlatformConfig pc;
    pc.num_cores = 18;
    sim::Platform platform(pc);

    core::TenantRegistry registry;
    for (unsigned t = 0; t < tenants; ++t) {
        core::TenantSpec spec;
        spec.name = "t" + std::to_string(t);
        for (unsigned c = 0; c < cores_per_tenant; ++c) {
            spec.cores.push_back(static_cast<cache::CoreId>(
                (t * cores_per_tenant + c) %
                (pc.num_cores - 1)));
        }
        spec.initial_ways = 1;
        spec.is_io = (t == 0);
        spec.priority = core::TenantPriority::BestEffort;
        registry.add(spec);
    }

    core::IatParams params;
    params.interval_seconds = 1.0;
    params.threshold_miss_low_per_s = 1e3;
    core::IatDaemon daemon(platform.pqos(), registry, params);
    // With --trace/--metrics off this is a nullptr attach: the tick
    // loop below pays only dead null checks, keeping the measured
    // overhead identical to the uninstrumented daemon.
    daemon.setTelemetry(telemetry);
    daemon.tick(0.0); // init

    OverheadSample sample;
    double stable_acc = 0.0, unstable_acc = 0.0;
    double poll_acc = 0.0, total_acc = 0.0;
    std::uint64_t lines = 4000;
    std::uint64_t base = 10ull << 26;
    for (unsigned i = 1; i <= iterations; ++i) {
        // Stretches of steady traffic (stable iterations) broken by
        // working-set jumps every eighth interval (unstable ones).
        if (i % 8 == 0) {
            base = (10ull + i) << 26;
            lines = lines >= 64'000 ? 4000 : lines * 2;
        }
        for (std::uint64_t j = 0; j < lines; ++j)
            platform.dmaWrite(0, base + j * 64, 64);
        platform.advanceQuantum(1e-4);
        daemon.tick(static_cast<double>(i));
        const auto &t = daemon.lastTiming();
        const double logic = t.poll_seconds +
                             t.transition_seconds +
                             t.realloc_seconds;
        const double modeled =
            logic + (t.msr_reads + t.msr_writes) *
                        kMsrAccessSeconds;
        if (t.stable) {
            stable_acc += modeled;
            ++sample.stable_count;
        } else {
            unstable_acc += modeled;
            ++sample.unstable_count;
        }
        poll_acc += t.poll_seconds +
                    t.msr_reads * kMsrAccessSeconds;
        total_acc += modeled;
    }
    if (sample.stable_count)
        sample.stable_us =
            stable_acc / sample.stable_count * 1e6;
    if (sample.unstable_count)
        sample.unstable_us =
            unstable_acc / sample.unstable_count * 1e6;
    sample.poll_share = total_acc > 0 ? poll_acc / total_acc : 0.0;
    return sample;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const auto iterations = static_cast<unsigned>(
        args.getInt("iterations",
                    args.getBool("quick") ? 100 : 400));
    bench::requireBenchFlags(args);

    TablePrinter table("Figure 15: IAT daemon execution time per "
                       "iteration (modeled MSR cost 2us/access)");
    table.setHeader({"tenants", "cores_per_tenant", "total_cores",
                     "stable_us", "unstable_us", "poll_share_%",
                     "stable_iters", "unstable_iters"});

    struct Case
    {
        unsigned tenants;
        unsigned cores;
    };
    // The paper sweeps to 16 tenants; the model's daemon insists on
    // disjoint >=1-way CAT masks, which caps an 11-way LLC at 11
    // tenants (EXPERIMENTS.md discusses the difference).
    const Case cases[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1}, {11, 1},
                          {1, 2}, {2, 2}, {4, 2}, {8, 2}};
    auto telemetry = obs::makeTelemetry(args);
    for (const auto &c : cases) {
        const auto s =
            measure(c.tenants, c.cores, iterations, telemetry.get());
        table.addRow({std::to_string(c.tenants),
                      std::to_string(c.cores),
                      std::to_string(c.tenants * c.cores),
                      TablePrinter::num(s.stable_us, 1),
                      TablePrinter::num(s.unstable_us, 1),
                      TablePrinter::num(s.poll_share * 100.0, 1),
                      std::to_string(s.stable_count),
                      std::to_string(s.unstable_count)});
    }

    bench::finishBench(table, args);
    bench::finishTelemetry(telemetry.get());
    return 0;
}
