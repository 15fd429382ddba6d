/**
 * @file
 * The policy bakeoff table (not a paper figure; ROADMAP "Policy
 * bakeoff"): every registered policy head-to-head on every shipped
 * scenario, reporting throughput, p99 and the fairness axis from
 * bakeoffRunCase(). The campaign twin is experiments/bakeoff.exp,
 * which runs the same cases through iatexp in parallel; this binary
 * is the interactive, figure-style view.
 *
 * Flags: --scenario=agg|slicing|corun restricts the scenario axis,
 * --fault-* flags (fault/plan.hh) add an injected-fault campaign to
 * every policy pass, --quick / --seed as usual.
 *
 * Reading the table: tput is M items delivered per second (packets
 * for agg/slicing, Redis responses for corun) and p99 is in
 * microseconds, so rows compare within a scenario, not across.
 * jain is Jain's fairness index over the tenants' solo-normalized
 * progress (1.0 = perfectly even slowdown) and worst_slowdown the
 * largest per-tenant slowdown vs its solo reference.
 */

#include <cstdio>

#include "bench/sweeps.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    const double scale = bench::quickScale(args);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string only = args.getString("scenario", "");
    const auto plan = fault::FaultPlan::fromCli(args);

    TablePrinter table(
        plan.any() ? "Policy bakeoff (under the CLI fault plan)"
                   : "Policy bakeoff (fault-free)");
    table.setHeader({"scenario", "policy", "tput_mps", "p99_us",
                     "jain", "worst_slowdown", "ddio_ways"});

    for (const auto &scenario : bench::bakeoffScenarios()) {
        if (!only.empty() && scenario != only)
            continue;
        for (const auto policy : core::allPolicyKinds()) {
            // The ablation is a Fig 10 variant, not a bakeoff entry.
            if (policy == core::PolicyKind::IatNoDdio)
                continue;
            const auto r = bench::bakeoffRunCase(policy, scenario,
                                                 plan, scale, seed);
            table.addRow({scenario, bench::figureLabel(policy),
                          TablePrinter::num(r.tput_mps, 3),
                          TablePrinter::num(r.p99_us, 2),
                          TablePrinter::num(r.jain, 4),
                          TablePrinter::num(r.worst_slowdown, 3),
                          std::to_string(r.hw_ddio_ways)});
        }
    }

    bench::finishBench(table, args);
    return 0;
}
