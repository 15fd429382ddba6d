/**
 * @file
 * Table I: configuration of the modelled Intel Xeon Gold 6140.
 *
 * Regenerates the paper's platform table from the model's actual
 * configuration structures, so any drift between DESIGN.md and the
 * code shows up here.
 */

#include <cstdio>

#include "bench/common.hh"
#include "sim/platform.hh"
#include "util/units.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    bench::requireBenchFlags(args);

    const sim::PlatformConfig cfg;
    const auto &llc = cfg.llc;
    const auto &l2 = cfg.l2;

    TablePrinter table(
        "Table I: Configuration of Intel Xeon 6140 CPU (modelled)");
    table.setHeader({"Component", "Configuration"});
    char buf[160];

    std::snprintf(buf, sizeof(buf), "%u cores, %.1fGHz",
                  cfg.num_cores, cfg.core_hz / 1e9);
    table.addRow({"Cores", buf});

    std::snprintf(buf, sizeof(buf), "%u-way %uKB L2 (per core)",
                  l2.num_ways,
                  static_cast<unsigned>(l2.totalBytes() / KiB));
    table.addRow({"L2", buf});

    std::snprintf(
        buf, sizeof(buf),
        "%u-way %.2fMB non-inclusive shared LLC (split to %u slices)",
        llc.num_ways,
        static_cast<double>(llc.totalBytes()) / (1024.0 * 1024.0),
        llc.num_slices);
    table.addRow({"LLC", buf});

    std::snprintf(buf, sizeof(buf),
                  "DRAM model: %.0f GB/s peak, %.0f-cycle idle "
                  "latency (six DDR4-2666 channels)",
                  cfg.dram.peak_bandwidth_bytes_per_s / 1e9,
                  cfg.dram.base_latency_cycles);
    table.addRow({"Memory", buf});

    std::snprintf(buf, sizeof(buf),
                  "2 ways (hardware default; IIO_LLC_WAYS MSR)");
    table.addRow({"DDIO", buf});

    bench::finishBench(table, args);
    return 0;
}
