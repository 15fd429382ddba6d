/**
 * @file
 * The decision/event tracer: a timestamped record of what the
 * control plane did and why -- FSM state transitions, way-mask
 * programming, shuffle decisions, DDIO pressure counters, stability
 * gate verdicts.
 *
 * Events accumulate in memory (simulated runs are short; buffering
 * keeps the hot path to a vector push) and serialize on demand to
 *
 *  - Chrome trace_event JSON ("traceEvents" array), loadable in
 *    chrome://tracing and Perfetto, giving the Fig 11 timeline as an
 *    interactive view: instant events ('i') for decisions, counter
 *    events ('C') for DDIO hit/miss rate tracks; and
 *  - plain JSONL, one event per line, for jq/pandas pipelines.
 *
 * Timestamps are *simulated* seconds (Chrome output converts to the
 * format's microseconds). A disabled tracer records nothing; every
 * instrumentation site guards with enabled(), so tracing-off runs pay
 * one predictable branch.
 */

#ifndef IATSIM_OBS_TRACE_HH
#define IATSIM_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace iat::obs {

namespace stream {
class StreamDispatcher;
} // namespace stream

/** One event argument: a string or a number, keyed by name. */
struct TraceArg
{
    TraceArg(std::string k, std::string v)
        : key(std::move(k)), str(std::move(v))
    {
    }
    TraceArg(std::string k, const char *v)
        : key(std::move(k)), str(v)
    {
    }
    TraceArg(std::string k, double v)
        : key(std::move(k)), num(v), is_num(true)
    {
    }
    TraceArg(std::string k, std::uint64_t v)
        : key(std::move(k)), num(static_cast<double>(v)), is_num(true)
    {
    }
    TraceArg(std::string k, unsigned v)
        : key(std::move(k)), num(v), is_num(true)
    {
    }
    TraceArg(std::string k, int v)
        : key(std::move(k)), num(v), is_num(true)
    {
    }

    std::string key;
    std::string str;
    double num = 0.0;
    bool is_num = false;
};

/** One recorded event. */
struct TraceEvent
{
    double ts_seconds = 0.0;
    char phase = 'i'; ///< 'i' instant, 'C' counter track
    std::string category;
    std::string name;
    std::vector<TraceArg> args;
};

/** Event recorder; see file comment. */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Record a point-in-time decision (phase 'i'). No-op when
     *  disabled. */
    void instant(double ts, std::string category, std::string name,
                 std::vector<TraceArg> args = {});

    /** Record a sample on a counter track (phase 'C'); every arg
     *  must be numeric and becomes one series of the track. */
    void counter(double ts, std::string category, std::string name,
                 std::vector<TraceArg> args);

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /** Events ever recorded, ignoring clear() and window trimming. */
    std::uint64_t totalEvents() const { return total_events_; }

    /// @name Streaming (service/soak runs)
    /// @{

    /**
     * Publish every future event through @p stream as a Trace
     * record the moment it is recorded (the in-memory buffer still
     * fills for end-of-run serialization); nullptr detaches.
     */
    void setStream(stream::StreamDispatcher *stream);

    /**
     * Bound the in-memory event buffer to @p limit events (0 = keep
     * everything). Oldest events are discarded first, so an
     * open-ended service run keeps a sliding window for snapshot
     * while the stream carries the full history.
     */
    void setEventLimit(std::size_t limit);
    /// @}

    /** Events matching @p category and @p name (test convenience). */
    std::size_t count(const std::string &category,
                      const std::string &name) const;

    /// @name Serialization
    /// @{
    void writeChromeTrace(std::ostream &os) const;
    void writeJsonl(std::ostream &os) const;

    /** Write to @p path; false on I/O error. Paths ending in
     *  ".jsonl" get JSONL, anything else the Chrome format. */
    bool writeFile(const std::string &path) const;
    /// @}

  private:
    void record(TraceEvent event);
    void trimEvents();

    bool enabled_ = false;
    std::vector<TraceEvent> events_;
    stream::StreamDispatcher *stream_ = nullptr;
    std::size_t event_limit_ = 0;
    std::uint64_t total_events_ = 0;
};

/** Serialize one event as a streamed Trace record's JSON line. */
std::string traceRecordJson(const TraceEvent &event);

} // namespace iat::obs

#endif // IATSIM_OBS_TRACE_HH
