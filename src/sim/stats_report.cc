/**
 * @file
 * StatsReport implementation.
 */

#include "sim/stats_report.hh"

#include <algorithm>

namespace iat::sim {

PlatformSnapshot
PlatformSnapshot::capture(const Platform &platform)
{
    PlatformSnapshot snap;
    snap.now_seconds = platform.now();

    const unsigned cores = platform.config().num_cores;
    snap.cores.resize(cores);
    for (unsigned c = 0; c < cores; ++c) {
        auto &row = snap.cores[c];
        row.instructions = platform.instructionsRetired(
            static_cast<cache::CoreId>(c));
        row.cycles =
            platform.cyclesElapsed(static_cast<cache::CoreId>(c));
        const auto &cc = platform.llc().coreCounters(
            static_cast<cache::CoreId>(c));
        row.llc_refs = cc.llc_refs;
        row.llc_misses = cc.llc_misses;
    }

    for (unsigned s = 0; s < platform.config().llc.num_slices; ++s) {
        const auto &sc = platform.llc().sliceCounters(s);
        snap.ddio_hits += sc.ddio_hits;
        snap.ddio_misses += sc.ddio_misses;
    }

    snap.devices.resize(cache::SlicedLlc::numDevices);
    for (unsigned d = 0; d < cache::SlicedLlc::numDevices; ++d) {
        const auto &dc = platform.llc().deviceCounters(
            static_cast<cache::DeviceId>(d));
        snap.devices[d].ddio_hits = dc.ddio_hits;
        snap.devices[d].ddio_misses = dc.ddio_misses;
    }

    snap.rmid_bytes.resize(cache::SlicedLlc::numRmids);
    for (unsigned r = 0; r < cache::SlicedLlc::numRmids; ++r) {
        snap.rmid_bytes[r] = platform.llc().rmidBytes(
            static_cast<cache::RmidId>(r));
    }

    const auto &dram = platform.dram().counters();
    snap.dram_read_bytes = dram.totalReadBytes();
    snap.dram_write_bytes = dram.totalWriteBytes();
    snap.dram_utilization = platform.dram().utilization();
    return snap;
}

PlatformSnapshot
PlatformSnapshot::since(const PlatformSnapshot &earlier) const
{
    PlatformSnapshot delta = *this;
    delta.is_delta = true;
    delta.now_seconds = now_seconds - earlier.now_seconds;
    for (std::size_t c = 0;
         c < std::min(cores.size(), earlier.cores.size()); ++c) {
        delta.cores[c].instructions -= earlier.cores[c].instructions;
        delta.cores[c].cycles -= earlier.cores[c].cycles;
        delta.cores[c].llc_refs -= earlier.cores[c].llc_refs;
        delta.cores[c].llc_misses -= earlier.cores[c].llc_misses;
    }
    delta.ddio_hits -= earlier.ddio_hits;
    delta.ddio_misses -= earlier.ddio_misses;
    for (std::size_t d = 0;
         d < std::min(devices.size(), earlier.devices.size()); ++d) {
        delta.devices[d].ddio_hits -= earlier.devices[d].ddio_hits;
        delta.devices[d].ddio_misses -= earlier.devices[d].ddio_misses;
    }
    delta.dram_read_bytes -= earlier.dram_read_bytes;
    delta.dram_write_bytes -= earlier.dram_write_bytes;
    // Occupancy and utilization are levels, not counters: keep the
    // current values (see the delta contract in the header).
    return delta;
}

PlatformSnapshot::CoreRow
PlatformSnapshot::sumCores(
    const std::vector<cache::CoreId> &core_list) const
{
    CoreRow sum;
    for (const auto core : core_list) {
        const auto &row = cores.at(core);
        sum.instructions += row.instructions;
        sum.cycles += row.cycles;
        sum.llc_refs += row.llc_refs;
        sum.llc_misses += row.llc_misses;
    }
    return sum;
}

TablePrinter
StatsReport::coreTable() const
{
    TablePrinter table(snap_.is_delta
                           ? "per-core activity (interval)"
                           : "per-core activity (cumulative)");
    table.setHeader(
        {"core", "instructions", "ipc", "llc_refs", "llc_misses",
         "miss_rate"});
    for (std::size_t c = 0; c < snap_.cores.size(); ++c) {
        const auto &row = snap_.cores[c];
        if (row.instructions == 0 && row.llc_refs == 0)
            continue;
        const double ipc =
            row.cycles ? static_cast<double>(row.instructions) /
                             static_cast<double>(row.cycles)
                       : 0.0;
        const double mr =
            row.llc_refs ? static_cast<double>(row.llc_misses) /
                               static_cast<double>(row.llc_refs)
                         : 0.0;
        table.addRow({std::to_string(c),
                      std::to_string(row.instructions),
                      TablePrinter::num(ipc, 3),
                      std::to_string(row.llc_refs),
                      std::to_string(row.llc_misses),
                      TablePrinter::num(mr, 3)});
    }
    return table;
}

TablePrinter
StatsReport::memoryTable() const
{
    TablePrinter table(snap_.is_delta ? "memory system (interval)"
                                      : "memory system (cumulative)");
    table.setHeader({"metric", "value"});
    table.addRow({snap_.is_delta ? "window_seconds" : "now_seconds",
                  TablePrinter::num(snap_.now_seconds, 4)});
    table.addRow({"ddio_hits", std::to_string(snap_.ddio_hits)});
    table.addRow(
        {"ddio_misses", std::to_string(snap_.ddio_misses)});
    table.addRow({"dram_read_MB",
                  TablePrinter::num(
                      snap_.dram_read_bytes / 1e6, 2)});
    table.addRow({"dram_write_MB",
                  TablePrinter::num(
                      snap_.dram_write_bytes / 1e6, 2)});
    // The last two are levels even in an interval report.
    table.addRow({snap_.is_delta ? "dram_utilization (level)"
                                 : "dram_utilization",
                  TablePrinter::num(snap_.dram_utilization, 3)});
    std::uint64_t occupied = 0;
    for (const auto bytes : snap_.rmid_bytes)
        occupied += bytes;
    table.addRow({snap_.is_delta ? "llc_occupied_MB (level)"
                                 : "llc_occupied_MB",
                  TablePrinter::num(occupied / 1e6, 2)});
    return table;
}

void
StatsReport::print() const
{
    coreTable().print();
    memoryTable().print();
}

} // namespace iat::sim
