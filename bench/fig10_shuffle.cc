/**
 * @file
 * Figure 10: the Latent-Contender cure in the slicing world
 * (SS VI-B, "Solving the Latent Contender problem").
 *
 * Two PC testpmd VFs plus three X-Mem containers (2 BE, 1 PC). The
 * scripted phases of the paper, time-scaled (DESIGN.md SS1):
 *   t=0    all X-Mem at 2MB working sets;
 *   t=T1   container 4 (PC) grows to 10MB  (paper: 5s);
 *   t=T2   DDIO ways flipped 2 -> 4 externally (paper: 15s).
 * Container 4's throughput and average latency are reported in the
 * settled windows after T1 (Fig 10a/b) and after T2 (Fig 10c/d) for
 * baseline / Core-only / I/O-iso / IAT (per paper footnote 3, IAT's
 * DDIO tuning is disabled here to isolate shuffling).
 *
 * Paper shape: Core-only helps at small packets but fades as packet
 * size grows (it granted container 4 the DDIO ways); IAT stays high
 * across sizes in both phases; I/O-iso matches IAT in phase 1 but
 * strands capacity after the DDIO grows.
 *
 * Thin wrapper: the case body lives in bench/sweeps.cc
 * (fig10RunCase) so iatexp can run the 12 cases concurrently from
 * experiments/fig10_shuffle.exp. The table prints the paper-facing
 * figureLabel() ("IAT" for the ablated daemon, footnote 3); the
 * machine-readable sweep records carry the distinct "iat-noddio"
 * label instead.
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

    TablePrinter table("Figure 10: container-4 X-Mem under the "
                       "scripted phases (slicing model)");
    table.setHeader({"frame_bytes", "policy", "tput_MBps_after_5s",
                     "lat_ns_after_5s", "tput_MBps_after_15s",
                     "lat_ns_after_15s"});

    const core::PolicyKind policies[] = {
        core::PolicyKind::Static, core::PolicyKind::CoreOnly,
        core::PolicyKind::IoIso, core::PolicyKind::IatNoDdio};

    for (std::uint32_t frame : {64u, 512u, 1500u}) {
        for (const auto policy : policies) {
            const auto r =
                bench::fig10RunCase(policy, frame, scale, seed);
            table.addRow(
                {std::to_string(frame), bench::figureLabel(policy),
                 TablePrinter::num(r.after_t1.tput_mbps, 1),
                 TablePrinter::num(r.after_t1.lat_ns, 1),
                 TablePrinter::num(r.after_t2.tput_mbps, 1),
                 TablePrinter::num(r.after_t2.lat_ns, 1)});
            std::printf("  frame=%uB %s done\n", frame,
                        bench::figureLabel(policy));
            std::fflush(stdout);
        }
    }

    bench::finishBench(table, args);
    return 0;
}
