/**
 * @file
 * The periodic time-series sampler: one row per sample interval over
 * every metric in a registry.
 *
 * Column semantics, chosen so each row describes *that interval*:
 *
 *  - counters    -> per-interval delta (reads as a rate when divided
 *                   by the interval);
 *  - gauges      -> instantaneous value at sample time;
 *  - histograms  -> three columns: <name>.count (per-interval delta),
 *                   <name>.mean and <name>.p99 (cumulative, since
 *                   percentiles of a window need snapshotting the
 *                   whole histogram).
 *
 * The column set freezes at the first sample() so every row has the
 * same shape; metrics registered later are ignored with a warning.
 * Rows buffer in memory and serialize on demand to CSV (header row,
 * then numbers) or JSONL (one {"t_seconds":..,"col":..} object per
 * line).
 *
 * Streaming mode (service/soak runs): attach a StreamDispatcher with
 * setStream() and every row is *also* published incrementally as a
 * Sample record the moment it is taken, preceded by one Header
 * record describing each column's delta/level/cumulative semantics
 * (the same delta contract PlatformSnapshot::since() documents).
 * Open-ended runs bound memory with setRowLimit(): the in-memory
 * row buffer becomes a sliding window while totalSamples() keeps
 * counting.
 */

#ifndef IATSIM_OBS_SAMPLER_HH
#define IATSIM_OBS_SAMPLER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace iat::obs {

namespace stream {
class StreamDispatcher;
} // namespace stream

/** Output syntax for the time series. */
enum class SampleFormat { Csv, Jsonl };

/** How a column's values read across rows (the delta contract). */
enum class ColumnSemantics
{
    Delta,      ///< per-interval difference (counters, hist counts)
    Level,      ///< instantaneous value (gauges)
    Cumulative, ///< since start of run (hist mean/percentiles)
};

const char *toString(ColumnSemantics semantics);

/** Registry -> rows; see file comment. */
class TimeSeriesSampler
{
  public:
    explicit TimeSeriesSampler(const MetricsRegistry &registry,
                               SampleFormat format = SampleFormat::Csv)
        : registry_(registry), format_(format)
    {
    }

    /** Append one row stamped @p now (simulated seconds). */
    void sample(double now);

    /** Column names, excluding the leading t_seconds; empty until
     *  the first sample. */
    const std::vector<std::string> &columns() const;

    /** Rows currently buffered (the retained window when a row
     *  limit is set). */
    std::size_t rowCount() const { return rows_.size(); }

    /** Rows ever taken, ignoring window trimming. */
    std::uint64_t totalSamples() const { return total_samples_; }

    /** Row @p i as (t_seconds, values aligned with columns()). */
    double rowTime(std::size_t i) const { return rows_[i].t; }
    const std::vector<double> &
    rowValues(std::size_t i) const
    {
        return rows_[i].values;
    }

    SampleFormat format() const { return format_; }

    /// @name Streaming (see file comment)
    /// @{

    /** Publish each future row through @p stream; nullptr detaches.
     *  If the column set is already frozen the header is (re)sent
     *  immediately. */
    void setStream(stream::StreamDispatcher *stream);

    /** Bound the in-memory row buffer to @p limit rows (0 = keep
     *  everything, the default). Oldest rows are discarded first. */
    void setRowLimit(std::size_t limit);
    /// @}

    /// @name Serialization
    /// @{
    void writeCsv(std::ostream &os) const;
    void writeJsonl(std::ostream &os) const;

    /** Write in the configured format; false on I/O error. */
    bool writeFile(const std::string &path) const;
    /// @}

  private:
    struct Row
    {
        double t = 0.0;
        std::vector<double> values;
    };

    /** A frozen reference into the registry. */
    struct Column
    {
        enum class Source { CounterDelta, Gauge, HistCountDelta,
                            HistMean, HistP99 };
        Source source;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const Histogram *histogram = nullptr;
        std::uint64_t prev = 0; ///< for delta sources
    };

    void freezeColumns();
    void publishHeader(double now);
    void publishRow(const Row &row);
    void trimRows();

    const MetricsRegistry &registry_;
    SampleFormat format_;
    /** Shared so streamed Sample records can reference the column
     *  names without copying them per row. */
    std::shared_ptr<std::vector<std::string>> columns_ =
        std::make_shared<std::vector<std::string>>();
    std::vector<ColumnSemantics> semantics_;
    std::vector<Column> sources_;
    std::vector<Row> rows_;
    std::size_t frozen_metrics_ = 0;
    bool warned_growth_ = false;

    stream::StreamDispatcher *stream_ = nullptr;
    bool header_sent_ = false;
    std::size_t row_limit_ = 0;
    std::uint64_t total_samples_ = 0;
};

} // namespace iat::obs

#endif // IATSIM_OBS_SAMPLER_HH
