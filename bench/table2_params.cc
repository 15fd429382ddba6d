/**
 * @file
 * Table II: IAT parameters, printed from the live defaults of
 * core::IatParams so the table cannot drift from the code.
 */

#include <cstdio>

#include "bench/common.hh"
#include "core/params.hh"

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    bench::requireBenchFlags(args);

    const core::IatParams params;
    TablePrinter table("Table II: IAT parameters");
    table.setHeader({"Name", "Value"});
    char buf[64];

    std::snprintf(buf, sizeof(buf), "%.0f%%",
                  params.threshold_stable * 100.0);
    table.addRow({"THRESHOLD_STABLE", buf});

    std::snprintf(buf, sizeof(buf), "%.0fM/s",
                  params.threshold_miss_low_per_s / 1e6);
    table.addRow({"THRESHOLD_MISS_LOW", buf});

    std::snprintf(buf, sizeof(buf), "%u/%u", params.ddio_ways_min,
                  params.ddio_ways_max);
    table.addRow({"DDIO_WAYS_MIN/MAX", buf});

    std::snprintf(buf, sizeof(buf), "%.0f second(s)",
                  params.interval_seconds);
    table.addRow({"Sleep interval", buf});

    std::snprintf(buf, sizeof(buf), "%.0f%% (model extension)",
                  params.threshold_miss_drop * 100.0);
    table.addRow({"THRESHOLD_MISS_DROP", buf});

    bench::finishBench(table, args);
    return 0;
}
