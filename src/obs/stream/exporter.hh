/**
 * @file
 * The exporter pipeline: the handler-dispatcher shape of the globus
 * usage receiver, applied to telemetry records.
 *
 * An Exporter is one sink; it declares which record kinds it wants
 * (wants()) and consumes matching records (handle()). The
 * StreamDispatcher is the single fan-out point every producer
 * publishes through: it walks the registered exporters in order and
 * hands each record to those whose mask matches. Dispatch is
 * synchronous and single-threaded -- the simulator is single-
 * threaded, and a record is fully consumed before the producer
 * continues, so exporters never see torn state.
 *
 * Exporters must tolerate being flushed at any time (flush()) and
 * must not throw out of handle(): a failing sink counts an error and
 * keeps the pipeline alive (telemetry must never take down the
 * world it observes).
 */

#ifndef IATSIM_OBS_STREAM_EXPORTER_HH
#define IATSIM_OBS_STREAM_EXPORTER_HH

#include <cstdint>
#include <vector>

#include "obs/stream/record.hh"

namespace iat::obs::stream {

/** One sink of the pipeline; see file comment. */
class Exporter
{
  public:
    virtual ~Exporter() = default;

    /** Short sink name for stats ("jsonl", "socket", "ring"). */
    virtual const char *name() const = 0;

    /** Does this sink consume @p kind? Default: everything. */
    virtual bool
    wants(StreamKind kind) const
    {
        (void)kind;
        return true;
    }

    /** Consume one record. Must not throw. */
    virtual void handle(const StreamRecord &record) = 0;

    /** Push buffered bytes to durable/visible form; default no-op. */
    virtual void flush() {}

    /**
     * Records this sink accepted but could not deliver (slow
     * subscriber, full buffer, write error). Most sinks never drop;
     * the default is 0. Surfaced per sink in the service's `stats`
     * reply and summed into the stream.dropped gauge -- silent loss
     * in a telemetry pipeline is the one failure mode an operator
     * cannot see from the data itself.
     */
    virtual std::uint64_t dropped() const { return 0; }
};

/** Convenience base: filter by a kind bitmask. */
class KindFilteredExporter : public Exporter
{
  public:
    explicit KindFilteredExporter(unsigned kind_mask = kAllKinds)
        : kind_mask_(kind_mask)
    {
    }

    bool
    wants(StreamKind kind) const override
    {
        return (kind_mask_ & kindBit(kind)) != 0;
    }

  private:
    unsigned kind_mask_;
};

/** Per-sink dispatch accounting. */
struct SinkStats
{
    const char *name = "";
    std::uint64_t handled = 0;
    std::uint64_t dropped = 0; ///< Exporter::dropped() at snapshot
};

/** The fan-out point; see file comment. */
class StreamDispatcher
{
  public:
    /** Register a sink the caller keeps alive (not owned). */
    void add(Exporter *exporter);

    /** Hand @p record to every sink whose wants() matches. */
    void publish(const StreamRecord &record);

    /** Flush every sink. */
    void flushAll();

    /** Records accepted into the pipeline (pre-fan-out). */
    std::uint64_t published() const { return published_; }

    /** Records published of @p kind. */
    std::uint64_t
    publishedOf(StreamKind kind) const
    {
        return by_kind_[static_cast<unsigned>(kind)];
    }

    /** Per-sink handled counts, in registration order. */
    std::vector<SinkStats> sinkStats() const;

    /** Sum of every sink's dropped() -- the stream.dropped gauge. */
    std::uint64_t droppedTotal() const;

  private:
    struct Sink
    {
        Exporter *exporter = nullptr;
        std::uint64_t handled = 0;
    };

    std::vector<Sink> sinks_;
    std::uint64_t published_ = 0;
    std::uint64_t by_kind_[kStreamKindCount] = {};
};

} // namespace iat::obs::stream

#endif // IATSIM_OBS_STREAM_EXPORTER_HH
