/**
 * @file
 * One-stop platform counter report.
 *
 * Collects every counter surface the model exposes -- per-core
 * demand/IPC, per-slice and per-device DDIO events, per-RMID
 * occupancy, DRAM byte counters by source -- into a plain struct
 * and renders it as a table. Used by iatctl and handy at the end of
 * any experiment ("what actually happened in the memory system?").
 */

#ifndef IATSIM_SIM_STATS_REPORT_HH
#define IATSIM_SIM_STATS_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/platform.hh"
#include "util/table.hh"

namespace iat::sim {

/**
 * Snapshot of all platform counters at one instant.
 *
 * Delta contract: since() subtracts everything that is a *counter*
 * (core instruction/cycle/LLC events, DDIO hits/misses -- chip-wide
 * and per device -- and DRAM bytes)
 * and keeps everything that is a *level* at its current value --
 * rmid_bytes (occupancy) and dram_utilization cannot be differenced
 * meaningfully. A snapshot produced by since() has is_delta set so
 * consumers (report headers, exporters) can label counter fields
 * "interval" instead of "cumulative"; the level fields always read
 * as at the later capture.
 */
struct PlatformSnapshot
{
    double now_seconds = 0.0;

    /** True when this snapshot came from since(): counter fields are
     *  interval deltas, level fields are still instantaneous. */
    bool is_delta = false;

    struct CoreRow
    {
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        std::uint64_t llc_refs = 0;
        std::uint64_t llc_misses = 0;
    };
    std::vector<CoreRow> cores;

    std::uint64_t ddio_hits = 0;
    std::uint64_t ddio_misses = 0;

    /** One PCIe device's DDIO events (SlicedLlc::deviceCounters). */
    struct DeviceRow
    {
        std::uint64_t ddio_hits = 0;
        std::uint64_t ddio_misses = 0;
    };
    /** Indexed by DeviceId, one row per SlicedLlc::numDevices. */
    std::vector<DeviceRow> devices;

    std::vector<std::uint64_t> rmid_bytes;

    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
    double dram_utilization = 0.0;

    /** Capture from @p platform. */
    static PlatformSnapshot capture(const Platform &platform);

    /** Counter-wise difference (this - earlier); levels kept, see
     *  the delta contract above. Sets is_delta on the result. */
    PlatformSnapshot since(const PlatformSnapshot &earlier) const;

    /** The rows of @p core_list added up (a tenant's or a stage's
     *  cores): the per-core side of a measurement window. */
    CoreRow sumCores(const std::vector<cache::CoreId> &core_list) const;
};

/** Render a snapshot (or a delta) as console tables. */
class StatsReport
{
  public:
    explicit StatsReport(const PlatformSnapshot &snap)
        : snap_(snap)
    {
    }

    /** Cores with any activity; skips fully idle ones. */
    TablePrinter coreTable() const;

    /** Memory-system summary (DDIO, DRAM, occupancy). */
    TablePrinter memoryTable() const;

    void print() const;

  private:
    PlatformSnapshot snap_;
};

} // namespace iat::sim

#endif // IATSIM_SIM_STATS_REPORT_HH
