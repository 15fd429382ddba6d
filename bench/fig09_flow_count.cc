/**
 * @file
 * Figure 9: OVS performance vs flow count (SS VI-B, second Leaky-DMA
 * experiment).
 *
 * As in the paper, one continuous run per policy: 64B line-rate
 * traffic whose flow population is stepped 1 -> 1M while the system
 * keeps running. With more flows OVS leaves its EMC fast path and
 * walks the wildcard classifier, whose footprint outgrows the
 * switch's static two ways: the baseline's LLC miss count climbs
 * and IPC sinks. IAT detects the core-side demand and grows the
 * switch tenant's ways, keeping misses low and IPC up to ~11%
 * higher (at the cost of inevitable slow-path work -- IPC/CPP still
 * degrade with flow count, as the paper notes).
 *
 * Thin wrapper: the ramp body lives in bench/sweeps.cc
 * (chaosRunCase, run here with an empty fault plan) so iatexp can run
 * both policies concurrently from experiments/fig09_flow_count.exp.
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

    TablePrinter table("Figure 9: OVS vs flow count ramped within "
                       "one run (64B line rate)");
    table.setHeader({"flows", "policy", "ovs_llc_miss_M/s",
                     "ovs_ipc", "ovs_ways", "tx_mpps"});

    for (const auto policy :
         {core::PolicyKind::Static, core::PolicyKind::Iat}) {
        const auto run = bench::chaosRunCase(
            policy, fault::FaultPlan{}, true, scale, seed);
        for (const auto &row : run.plateaus) {
            table.addRow({std::to_string(row.flows),
                          toString(policy),
                          TablePrinter::num(row.ovs_llc_miss_mps, 2),
                          TablePrinter::num(row.ovs_ipc, 3),
                          std::to_string(row.ovs_ways),
                          TablePrinter::num(row.tx_mpps, 2)});
        }
        std::printf("  %s ramp done\n", toString(policy));
        std::fflush(stdout);
    }

    bench::finishBench(table, args);
    return 0;
}
