/**
 * @file
 * Chaos A/B: what the daemon hardening buys (DESIGN.md SS 11).
 *
 * Three runs of the Fig 9 agg_testpmd ramp under the full IAT
 * daemon:
 *
 *   fault-free        no injector at all -- the reference row, the
 *                     fig09 ramp itself (the same ramp body);
 *   chaos hardened    the reference fault plan (counter wraparound,
 *                     sampling noise, write rejection, dropped polls,
 *                     link flaps, ring stalls, tenant churn) against
 *                     the hardened daemon;
 *   chaos unhardened  the same plan, same seed, with the hardening
 *                     kill switch thrown (--no-hardening path).
 *
 * The hardened row is expected to hold >= 90% of fault-free
 * throughput with zero end-of-run mask drift; the unhardened row
 * demonstrates the misallocation signature (drift_ways > 0: the
 * daemon booked rejected wrmsrs as done and its picture of the
 * hardware diverged) and/or a larger throughput loss.
 *
 * Flags: --quick, --seed=N, --csv=<path>, plus the --fault-* family
 * to override the reference plan (see README).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/sweeps.hh"
#include "fault/plan.hh"

namespace {

/** The reference chaos plan; mirrors experiments/chaos.exp. */
iat::fault::FaultPlan
referencePlan()
{
    iat::fault::FaultPlan plan;
    plan.start_seconds = 0.01;
    // Park every monotonic counter just below the 48-bit boundary so
    // the arming edge forces wraparound deltas.
    plan.counter_offset = 281474976000000ull;
    plan.read_noise = 0.35;
    plan.read_noise_mag = 32.0;
    plan.write_reject = 0.25;
    plan.poll_drop = 0.1;
    // Data-plane faults are kept under ~7% duty cycle: no daemon,
    // however hardened, can recover frames dropped on a dead link,
    // so the >= 90%-of-fault-free gate budgets for them.
    plan.link_flap_period_seconds = 0.02;
    plan.link_down_seconds = 0.001;
    plan.ring_stall_period_seconds = 0.05;
    plan.ring_stall_seconds = 0.001;
    plan.churn_period_seconds = 0.03;
    return plan;
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

    fault::FaultPlan plan = fault::FaultPlan::fromCli(args);
    if (!plan.any())
        plan = referencePlan();

    struct Case
    {
        const char *label;
        bool faults;
        bool hardening;
    };
    const Case cases[] = {
        {"fault-free", false, true},
        {"chaos hardened", true, true},
        {"chaos unhardened", true, false},
    };

    TablePrinter table("Chaos A/B: agg_testpmd ramp under the "
                       "reference fault plan (IAT daemon)");
    table.setHeader({"case", "tx_mpps", "vs_fault_free", "degraded",
                     "clamped", "retries", "failures", "drift_ways",
                     "alloc_vs_ref", "verdict"});

    double reference_mpps = 0.0;
    std::vector<unsigned> reference_ways;
    unsigned reference_ddio = 0;
    for (const auto &c : cases) {
        const auto r = bench::chaosRunCase(
            core::PolicyKind::Iat, c.faults ? plan : fault::FaultPlan{},
            c.hardening, scale, seed);
        if (!c.faults) {
            reference_mpps = r.tx_mpps;
            reference_ways = r.hw_tenant_ways;
            reference_ddio = r.hw_ddio_ways;
        }
        const double ratio =
            reference_mpps > 0.0 ? r.tx_mpps / reference_mpps : 1.0;

        // End allocation distance from the fault-free reference:
        // how far off the final way layout landed.
        unsigned alloc_delta = static_cast<unsigned>(
            std::abs(static_cast<int>(r.hw_ddio_ways) -
                     static_cast<int>(reference_ddio)));
        const std::size_t n = std::min(reference_ways.size(),
                                       r.hw_tenant_ways.size());
        for (std::size_t t = 0; t < n; ++t) {
            alloc_delta += static_cast<unsigned>(
                std::abs(static_cast<int>(r.hw_tenant_ways[t]) -
                         static_cast<int>(reference_ways[t])));
        }

        const char *verdict = "reference";
        if (c.faults && c.hardening)
            verdict = (ratio >= 0.9 && r.mask_drift_ways == 0)
                          ? "OK"
                          : "DEGRADED";
        else if (c.faults)
            verdict = (r.mask_drift_ways > 0 || alloc_delta >= 2 ||
                       ratio < 0.9)
                          ? "MISALLOC"
                          : "unscathed";

        table.addRow(
            {c.label, TablePrinter::num(r.tx_mpps, 2),
             TablePrinter::num(ratio * 100.0, 1) + "%",
             std::to_string(r.degraded_enters),
             std::to_string(r.outliers_clamped),
             std::to_string(r.write_retries),
             std::to_string(r.write_failures),
             std::to_string(r.mask_drift_ways),
             std::to_string(alloc_delta), verdict});
        std::printf("  %s done\n", c.label);
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
