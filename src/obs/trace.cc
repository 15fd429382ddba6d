/**
 * @file
 * Tracer serialization.
 *
 * Chrome trace_event reference: every event object carries name,
 * cat, ph, ts (microseconds), pid, tid and args. Instant events add
 * "s":"g" (global scope) so they render as full-height markers.
 */

#include "obs/trace.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/stream/exporter.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace iat::obs {

namespace {

/** Print a double as JSON (no NaN/Inf in the grammar). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeArgs(std::ostream &os, const std::vector<TraceArg> &args)
{
    os << '{';
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << json::escape(args[i].key) << "\":";
        if (args[i].is_num)
            os << jsonNumber(args[i].num);
        else
            os << '"' << json::escape(args[i].str) << '"';
    }
    os << '}';
}

void
writeEvent(std::ostream &os, const TraceEvent &ev, bool chrome)
{
    os << "{\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
       << json::escape(ev.category) << "\",\"ph\":\"" << ev.phase
       << "\",";
    if (chrome) {
        // trace_event wants microseconds.
        os << "\"ts\":" << jsonNumber(ev.ts_seconds * 1e6)
           << ",\"pid\":0,\"tid\":0";
        if (ev.phase == 'i')
            os << ",\"s\":\"g\"";
    } else {
        os << "\"ts_seconds\":" << jsonNumber(ev.ts_seconds);
    }
    os << ",\"args\":";
    writeArgs(os, ev.args);
    os << '}';
}

} // namespace


std::string
traceRecordJson(const TraceEvent &event)
{
    std::ostringstream os;
    os << "{\"kind\":\"trace\",\"t_seconds\":"
       << jsonNumber(event.ts_seconds) << ",\"name\":\""
       << json::escape(event.name) << "\",\"cat\":\""
       << json::escape(event.category) << "\",\"ph\":\"" << event.phase
       << "\",\"args\":";
    writeArgs(os, event.args);
    os << '}';
    return os.str();
}

void
Tracer::record(TraceEvent event)
{
    ++total_events_;
    if (stream_) {
        stream::StreamRecord rec;
        rec.kind = stream::StreamKind::Trace;
        rec.t_seconds = event.ts_seconds;
        rec.json = traceRecordJson(event);
        stream_->publish(rec);
    }
    events_.push_back(std::move(event));
    trimEvents();
}

void
Tracer::trimEvents()
{
    if (event_limit_ == 0 || events_.size() <= event_limit_)
        return;
    events_.erase(events_.begin(),
                  events_.begin() +
                      static_cast<std::ptrdiff_t>(events_.size() -
                                                  event_limit_));
}

void
Tracer::setStream(stream::StreamDispatcher *stream)
{
    stream_ = stream;
}

void
Tracer::setEventLimit(std::size_t limit)
{
    event_limit_ = limit;
    trimEvents();
}

void
Tracer::instant(double ts, std::string category, std::string name,
                std::vector<TraceArg> args)
{
    if (!enabled_)
        return;
    record(TraceEvent{ts, 'i', std::move(category), std::move(name),
                      std::move(args)});
}

void
Tracer::counter(double ts, std::string category, std::string name,
                std::vector<TraceArg> args)
{
    if (!enabled_)
        return;
    for (const auto &arg : args) {
        IAT_ASSERT(arg.is_num,
                   "counter track '%s' arg '%s' must be numeric",
                   name.c_str(), arg.key.c_str());
    }
    record(TraceEvent{ts, 'C', std::move(category), std::move(name),
                      std::move(args)});
}

std::size_t
Tracer::count(const std::string &category,
              const std::string &name) const
{
    std::size_t n = 0;
    for (const auto &ev : events_)
        n += ev.category == category && ev.name == name;
    return n;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (i)
            os << ',';
        os << '\n';
        writeEvent(os, events_[i], true);
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    for (const auto &ev : events_) {
        writeEvent(os, ev, false);
        os << '\n';
    }
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const bool jsonl = path.size() >= 6 &&
                       path.compare(path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl)
        writeJsonl(os);
    else
        writeChromeTrace(os);
    return static_cast<bool>(os);
}

} // namespace iat::obs
