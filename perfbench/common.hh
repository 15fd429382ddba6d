/**
 * @file
 * Shared plumbing of the iatperf benchmark program: the run options,
 * the report every workload fills (metrics, checks, digests), timing
 * summaries, and the in-memory span log of traced runs.
 *
 * Host time is read from std::chrono::steady_clock. Simulated time is
 * the model's own clock; every metric name says which one it uses
 * (README.md lists them).
 */

#ifndef IATPERF_COMMON_HH
#define IATPERF_COMMON_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace iat::sim {
class Platform;
} // namespace iat::sim

namespace perf {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Both host clocks at one instant: wall time and the CPU time of
 *  all the process's threads (including finished ones). */
struct Stamp
{
    Clock::time_point wall;
    double cpu_s;
};

Stamp stampNow();

/**
 * Host time of the timed legs, on both clocks. The guest kernel's
 * paravirtual steal accounting keeps time the hypervisor took from a
 * vCPU out of the CPU clock; waiting (a worker joined, a thread
 * preempted) is out of it too.
 */
struct Legs
{
    std::vector<double> wall_s, cpu_s;

    /** Close the leg opened at @p start; returns its wall seconds. */
    double close(const Stamp &start);
};

/** Command-line options of one run (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Host seconds the timed window lasts (--seconds). */
    double seconds = 10.0;
    bool trace = false;
    /** The benchmark's copy of the bakeoff campaign spec. */
    std::string spec_path;
    /** Where a traced run writes its spans (JSONL). */
    std::string spans_path;
};

/**
 * Median of a sample, the highest percentile that still has at least
 * ten samples beyond it (hi_q is that percentile as a fraction), and
 * its mirror lo, the lowest with ten samples below it. lo, hi and
 * hi_q are 0 below 21 samples, where they would cross the median.
 */
struct Summary
{
    double median = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double hi_q = 0.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> samples);

/** FNV-1a 64-bit of @p text, as 16 hex digits. */
std::string hashHex(const std::string &text);

/** Everything one workload run reports. */
class Report
{
  public:
    /** A metric by name with its unit; printed with all its digits. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A timing summary: `name` is the median, plus `name.hi` (the
     *  highest percentile with >= 10 samples beyond it) and
     *  `name.n`, both as detail. */
    void timing(const std::string &name, const Summary &s,
                const std::string &unit, double scale = 1.0);

    /** Informational number kept out of the scored metrics. */
    void detail(const std::string &name, double value);

    /** A correctness check; a failed one fails the whole run. */
    void check(const std::string &name, bool ok,
               const std::string &why = "");

    /** A simulated-output digest (identical across repeat runs). */
    void digest(const std::string &name, const std::string &value);

    bool allChecksPassed() const;

    /** Operations the run attempted (legs, or campaign trials). */
    std::uint64_t attempted = 0;

    /** The whole report as one JSON object (single line). */
    std::string toJson(const Options &opts) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    struct Check
    {
        std::string name;
        bool ok;
        std::string why;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, double>> details_;
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, std::string>> digests_;
};

/**
 * Spans of a traced run: name, start, end, parent span and the id of
 * the leg, epoch or trial the span belongs to. Kept in memory and
 * written out once, when the run ends. Safe to use from several
 * threads (cluster workers record shard spans concurrently).
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name; ///< string literal naming the layer call
        std::int64_t start_ns;
        std::int64_t end_ns; ///< -1 while open
        std::int32_t parent; ///< index of the parent span, -1 = root
        std::uint64_t id;
    };

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span now; returns its index for end() and children. */
    std::int32_t begin(const char *name, std::int32_t parent,
                       std::uint64_t id);
    void end(std::int32_t span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Sum of durations of closed spans named @p name. */
    double totalSeconds(const char *name) const;

    /**
     * Self time of spans named @p name: their durations minus the
     * time their direct children cover, summed (seconds).
     */
    double selfSeconds(const char *name) const;

    /** Write one JSON object per span to @p path; false on error. */
    bool write(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    const Clock::time_point origin_;
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

/** Public LLC, L2, DRAM and MSR counters of a platform (or a sum). */
struct Counters
{
    std::uint64_t llc_refs = 0, llc_misses = 0;
    std::uint64_t ddio_hits = 0, ddio_misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0;
    std::uint64_t dram_read = 0, dram_write = 0;
    std::uint64_t msr_reads = 0, msr_writes = 0;

    Counters &operator+=(const Counters &o);
    Counters operator-(const Counters &o) const;
};

Counters readCounters(iat::sim::Platform &platform);

/**
 * Report the cache, mem and rdt layer metrics of counter delta @p d
 * taken over @p window_s simulated seconds on platforms whose peak
 * DRAM bandwidth sums to @p peak_bw bytes/s.
 */
void reportCounters(Report &report, const Counters &d, double window_s,
                    double peak_bw);

/** Where a workload reads its legs' CPU times (see README.md). */
enum class ReadAt
{
    FastEnd, ///< Summary::lo: identical legs of a small world
    Median,  ///< memory-bound worlds, which have no quiet fast end
};

/**
 * The host-speed metric sim_ms_per_s: @p leg_ms simulated ms per leg
 * over the legs' CPU time read @p at, with the other readings (both
 * clocks) as detail.
 */
void reportSpeed(Report &report, const Legs &legs, double leg_ms,
                 ReadAt at);

/** Peak resident set of this process (VmHWM), MiB; 0 if unknown. */
double peakRssMib();

/// @name Workloads (one translation unit each)
/// @{
void runAggLine(const Options &opts, Report &report);
void runCluster4(const Options &opts, Report &report);
void runBakeoffSmoke(const Options &opts, Report &report);
/// @}

} // namespace perf

#endif // IATPERF_COMMON_HH
