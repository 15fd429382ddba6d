/**
 * @file
 * TimeSeriesSampler implementation.
 */

#include "obs/sampler.hh"

#include <fstream>
#include <ostream>

#include "obs/stream/exporter.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace iat::obs {

const char *
toString(ColumnSemantics semantics)
{
    switch (semantics) {
      case ColumnSemantics::Delta: return "delta";
      case ColumnSemantics::Level: return "level";
      case ColumnSemantics::Cumulative: return "cumulative";
    }
    return "?";
}

const std::vector<std::string> &
TimeSeriesSampler::columns() const
{
    return *columns_;
}

void
TimeSeriesSampler::freezeColumns()
{
    registry_.forEach([&](const std::string &name, MetricKind kind,
                          const Counter *c, const Gauge *g,
                          const Histogram *h) {
        Column col;
        switch (kind) {
          case MetricKind::Counter:
            // prev starts at zero so the first row covers everything
            // up to the first sample, not just since the freeze.
            col.source = Column::Source::CounterDelta;
            col.counter = c;
            columns_->push_back(name);
            semantics_.push_back(ColumnSemantics::Delta);
            sources_.push_back(col);
            break;
          case MetricKind::Gauge:
            col.source = Column::Source::Gauge;
            col.gauge = g;
            columns_->push_back(name);
            semantics_.push_back(ColumnSemantics::Level);
            sources_.push_back(col);
            break;
          case MetricKind::Histogram:
            col.histogram = h;
            col.source = Column::Source::HistCountDelta;
            columns_->push_back(name + ".count");
            semantics_.push_back(ColumnSemantics::Delta);
            sources_.push_back(col);
            col.source = Column::Source::HistMean;
            columns_->push_back(name + ".mean");
            semantics_.push_back(ColumnSemantics::Cumulative);
            sources_.push_back(col);
            col.source = Column::Source::HistP99;
            columns_->push_back(name + ".p99");
            semantics_.push_back(ColumnSemantics::Cumulative);
            sources_.push_back(col);
            break;
        }
    });
}

void
TimeSeriesSampler::setStream(stream::StreamDispatcher *stream)
{
    stream_ = stream;
    header_sent_ = false;
    if (stream_ && !sources_.empty()) {
        // Already frozen: a subscriber attached mid-run still needs
        // the column contract before the next row. Use the last row
        // time (0 before any sample) as the header stamp.
        publishHeader(rows_.empty() ? 0.0 : rows_.back().t);
    }
}

void
TimeSeriesSampler::setRowLimit(std::size_t limit)
{
    row_limit_ = limit;
    trimRows();
}

void
TimeSeriesSampler::trimRows()
{
    if (row_limit_ == 0 || rows_.size() <= row_limit_)
        return;
    rows_.erase(rows_.begin(),
                rows_.begin() +
                    static_cast<std::ptrdiff_t>(rows_.size() -
                                                row_limit_));
}

void
TimeSeriesSampler::publishHeader(double now)
{
    if (!stream_)
        return;
    stream::StreamRecord rec;
    rec.kind = stream::StreamKind::Header;
    rec.t_seconds = now;
    rec.columns = columns_;
    std::string &out = rec.json;
    out = "{\"kind\":\"header\",\"t_seconds\":";
    out += json::number(now);
    out += ",\"columns\":[";
    for (std::size_t i = 0; i < columns_->size(); ++i) {
        if (i)
            out += ',';
        out += "{\"name\":\"";
        out += json::escape((*columns_)[i]);
        out += "\",\"semantics\":\"";
        out += toString(semantics_[i]);
        out += "\"}";
    }
    out += "]}";
    stream_->publish(rec);
    header_sent_ = true;
}

void
TimeSeriesSampler::publishRow(const Row &row)
{
    if (!stream_)
        return;
    stream::StreamRecord rec;
    rec.kind = stream::StreamKind::Sample;
    rec.t_seconds = row.t;
    rec.columns = columns_;
    rec.values = row.values;
    std::string &out = rec.json;
    out = "{\"kind\":\"sample\",\"t_seconds\":";
    out += json::number(row.t);
    out += ",\"values\":{";
    for (std::size_t i = 0; i < columns_->size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += json::escape((*columns_)[i]);
        out += "\":";
        out += json::number(row.values[i]);
    }
    out += "}}";
    stream_->publish(rec);
}

void
TimeSeriesSampler::sample(double now)
{
    if (sources_.empty() && columns_->empty()) {
        freezeColumns();
        frozen_metrics_ = registry_.size();
    }
    if (!warned_growth_ && registry_.size() > frozen_metrics_) {
        // Registrations after the first sample would change the row
        // shape; they are excluded from this series.
        warn("time series already started; %zu late metric(s) "
             "will not be sampled",
             registry_.size() - frozen_metrics_);
        warned_growth_ = true;
    }
    if (stream_ && !header_sent_)
        publishHeader(now);

    Row row;
    row.t = now;
    row.values.reserve(sources_.size());
    for (auto &col : sources_) {
        double v = 0.0;
        switch (col.source) {
          case Column::Source::CounterDelta: {
            const std::uint64_t cur = col.counter->value();
            v = static_cast<double>(cur - col.prev);
            col.prev = cur;
            break;
          }
          case Column::Source::Gauge:
            v = col.gauge->read();
            break;
          case Column::Source::HistCountDelta: {
            const std::uint64_t cur = col.histogram->count();
            v = static_cast<double>(cur - col.prev);
            col.prev = cur;
            break;
          }
          case Column::Source::HistMean:
            v = col.histogram->mean();
            break;
          case Column::Source::HistP99:
            v = col.histogram->percentile(0.99);
            break;
        }
        row.values.push_back(v);
    }
    ++total_samples_;
    publishRow(row);
    rows_.push_back(std::move(row));
    trimRows();
}

void
TimeSeriesSampler::writeCsv(std::ostream &os) const
{
    os << "t_seconds";
    for (const auto &name : *columns_)
        os << ',' << name;
    os << '\n';
    for (const auto &row : rows_) {
        os << json::number(row.t);
        for (const double v : row.values)
            os << ',' << json::number(v);
        os << '\n';
    }
}

void
TimeSeriesSampler::writeJsonl(std::ostream &os) const
{
    for (const auto &row : rows_) {
        os << "{\"t_seconds\":" << json::number(row.t);
        for (std::size_t i = 0; i < columns_->size(); ++i) {
            os << ",\"" << json::escape((*columns_)[i])
               << "\":" << json::number(row.values[i]);
        }
        os << "}\n";
    }
}

bool
TimeSeriesSampler::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    if (format_ == SampleFormat::Jsonl)
        writeJsonl(os);
    else
        writeCsv(os);
    return static_cast<bool>(os);
}

} // namespace iat::obs
