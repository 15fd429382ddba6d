/**
 * @file
 * StreamDispatcher implementation.
 */

#include "obs/stream/exporter.hh"

#include "util/logging.hh"

namespace iat::obs::stream {

const char *
toString(StreamKind kind)
{
    switch (kind) {
      case StreamKind::Header: return "header";
      case StreamKind::Sample: return "sample";
      case StreamKind::Trace: return "trace";
      case StreamKind::Health: return "health";
      case StreamKind::Lifecycle: return "lifecycle";
    }
    return "?";
}

void
StreamDispatcher::add(Exporter *exporter)
{
    IAT_ASSERT(exporter != nullptr, "null exporter");
    sinks_.push_back(Sink{exporter, 0});
}

void
StreamDispatcher::publish(const StreamRecord &record)
{
    ++published_;
    ++by_kind_[static_cast<unsigned>(record.kind)];
    for (auto &sink : sinks_) {
        if (!sink.exporter->wants(record.kind))
            continue;
        sink.exporter->handle(record);
        ++sink.handled;
    }
}

void
StreamDispatcher::flushAll()
{
    for (auto &sink : sinks_)
        sink.exporter->flush();
}

std::vector<SinkStats>
StreamDispatcher::sinkStats() const
{
    std::vector<SinkStats> out;
    out.reserve(sinks_.size());
    for (const auto &sink : sinks_)
        out.push_back(SinkStats{sink.exporter->name(), sink.handled,
                                sink.exporter->dropped()});
    return out;
}

std::uint64_t
StreamDispatcher::droppedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &sink : sinks_)
        total += sink.exporter->dropped();
    return total;
}

} // namespace iat::obs::stream
