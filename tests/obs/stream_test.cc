/**
 * @file
 * Tests for the streaming exporter pipeline: dispatcher fan-out and
 * kind filtering, the JSONL file sink, the ring sink's eviction and
 * newest-first views, incremental sampler/tracer emission, and the
 * reader round trip (header semantics, monotone timestamps, gap
 * measurement, truncated-tail tolerance), and the Unix-socket
 * publisher behind `iatsvc --publish`.
 */

#include "obs/stream/exporter.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/sampler.hh"
#include "obs/stream/jsonl.hh"
#include "obs/stream/reader.hh"
#include "obs/stream/ring.hh"
#include "obs/stream/socket_pub.hh"
#include "obs/trace.hh"
#include "util/json.hh"

namespace iat::obs::stream {
namespace {

StreamRecord
makeRecord(StreamKind kind, double t)
{
    StreamRecord rec;
    rec.kind = kind;
    rec.t_seconds = t;
    rec.json = "{\"kind\":\"" + std::string(toString(kind)) +
               "\",\"t_seconds\":" + std::to_string(t) + '}';
    return rec;
}

/** Test sink recording everything it was handed. */
class CaptureExporter final : public KindFilteredExporter
{
  public:
    explicit CaptureExporter(unsigned mask = kAllKinds)
        : KindFilteredExporter(mask)
    {
    }

    const char *name() const override { return "capture"; }
    void
    handle(const StreamRecord &record) override
    {
        records.push_back(record);
    }
    void flush() override { ++flushes; }

    std::vector<StreamRecord> records;
    unsigned flushes = 0;
};

class TempFile
{
  public:
    explicit TempFile(const char *stem)
    {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s_%d.jsonl", stem,
                      ::getpid());
        path = buf;
    }
    ~TempFile() { std::remove(path.c_str()); }

    std::string path;
};

TEST(StreamDispatcher, FansOutByKindMask)
{
    StreamDispatcher dispatcher;
    CaptureExporter all;
    CaptureExporter samples_only(kindBit(StreamKind::Sample));
    dispatcher.add(&all);
    dispatcher.add(&samples_only);

    dispatcher.publish(makeRecord(StreamKind::Header, 0.0));
    dispatcher.publish(makeRecord(StreamKind::Sample, 1.0));
    dispatcher.publish(makeRecord(StreamKind::Trace, 2.0));

    EXPECT_EQ(all.records.size(), 3u);
    ASSERT_EQ(samples_only.records.size(), 1u);
    EXPECT_EQ(samples_only.records[0].kind, StreamKind::Sample);
    EXPECT_EQ(dispatcher.published(), 3u);
    EXPECT_EQ(dispatcher.publishedOf(StreamKind::Sample), 1u);

    const auto stats = dispatcher.sinkStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].handled, 3u);
    EXPECT_EQ(stats[1].handled, 1u);

    dispatcher.flushAll();
    EXPECT_EQ(all.flushes, 1u);
}

TEST(StreamDispatcher, SurfacesPerSinkAndTotalDrops)
{
    /** Sink that accepts records but fails to deliver odd ones. */
    class LossyExporter final : public Exporter
    {
      public:
        const char *name() const override { return "lossy"; }
        void
        handle(const StreamRecord &record) override
        {
            (void)record;
            if (++seen_ % 2)
                ++dropped_;
        }
        std::uint64_t dropped() const override { return dropped_; }

      private:
        std::uint64_t seen_ = 0;
        std::uint64_t dropped_ = 0;
    };

    StreamDispatcher dispatcher;
    CaptureExporter lossless;
    LossyExporter lossy;
    dispatcher.add(&lossless);
    dispatcher.add(&lossy);

    for (int i = 0; i < 4; ++i)
        dispatcher.publish(makeRecord(StreamKind::Sample, i));

    const auto stats = dispatcher.sinkStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].dropped, 0u);
    EXPECT_EQ(stats[1].handled, 4u);
    EXPECT_EQ(stats[1].dropped, 2u);
    EXPECT_EQ(dispatcher.droppedTotal(), 2u);
}

TEST(RingBufferExporter, EvictsOldestAndIndexesFromNewest)
{
    RingBufferExporter ring(3, kAllKinds);
    for (int i = 0; i < 5; ++i)
        ring.handle(makeRecord(StreamKind::Sample, i));

    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.total(), 5u);
    ASSERT_NE(ring.recent(0), nullptr);
    EXPECT_DOUBLE_EQ(ring.recent(0)->t_seconds, 4.0);
    EXPECT_DOUBLE_EQ(ring.recent(2)->t_seconds, 2.0);
    EXPECT_EQ(ring.recent(3), nullptr);

    ring.handle(makeRecord(StreamKind::Health, 9.0));
    const StreamRecord *latest = ring.latestOf(StreamKind::Sample);
    ASSERT_NE(latest, nullptr);
    EXPECT_DOUBLE_EQ(latest->t_seconds, 4.0);

    std::vector<double> seen;
    ring.visitRecent(StreamKind::Sample, 10,
                     [&](const StreamRecord &r) {
                         seen.push_back(r.t_seconds);
                         return true;
                     });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_DOUBLE_EQ(seen[0], 4.0); // newest first
}

TEST(JsonlFileExporter, WritesOneValidLinePerRecord)
{
    TempFile tmp("stream_jsonl");
    {
        JsonlFileExporter sink(tmp.path);
        ASSERT_TRUE(sink.ok());
        sink.handle(makeRecord(StreamKind::Header, 0.0));
        sink.handle(makeRecord(StreamKind::Sample, 1.0));
        sink.flush();
        EXPECT_EQ(sink.written(), 2u);
        EXPECT_EQ(sink.errors(), 0u);
    }
    std::ifstream in(tmp.path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NE(json::parse(line), nullptr) << line;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(JsonlFileExporter, UnopenableSinkStaysInert)
{
    JsonlFileExporter sink("/nonexistent-dir/x/y.jsonl");
    EXPECT_FALSE(sink.ok());
    sink.handle(makeRecord(StreamKind::Sample, 1.0)); // must not die
    EXPECT_EQ(sink.written(), 0u);
    EXPECT_GE(sink.errors(), 1u);
}

TEST(StreamRoundTrip, SamplerHeaderAndRowsSurviveFileAndReader)
{
    MetricsRegistry reg;
    Counter &packets = reg.counter("net.rx.packets");
    double level = 1.5;
    reg.gauge("dram.util", [&] { return level; });
    Histogram &lat = reg.histogram("req.lat");

    TimeSeriesSampler sampler(reg, SampleFormat::Jsonl);
    StreamDispatcher dispatcher;
    TempFile tmp("stream_roundtrip");
    JsonlFileExporter sink(tmp.path);
    ASSERT_TRUE(sink.ok());
    dispatcher.add(&sink);
    sampler.setStream(&dispatcher);

    packets.inc(10);
    lat.record(4.0);
    sampler.sample(0.005);
    packets.inc(5);
    level = 2.5;
    lat.record(8.0);
    sampler.sample(0.010);
    sampler.sample(0.015);
    sink.flush();

    bool ok = false;
    const StreamLog log = readStreamFile(tmp.path, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(log.bad_lines, 0u);
    EXPECT_FALSE(log.truncated_tail);
    EXPECT_EQ(log.header_count, 1u);
    ASSERT_EQ(log.samples.size(), 3u);
    EXPECT_TRUE(log.timestampsMonotone());
    EXPECT_NEAR(log.maxSampleSpacing(), 0.005, 1e-12);

    // The delta contract from the header: counters and histogram
    // counts are per-interval deltas, gauges are levels, histogram
    // mean/p99 cumulative -- matching the sampler's documented
    // semantics (and PlatformSnapshot::since()'s convention).
    auto semanticsOf = [&](const std::string &name) -> std::string {
        const int idx = log.columnIndex(name);
        EXPECT_GE(idx, 0) << name;
        return idx >= 0 ? log.columns[static_cast<std::size_t>(idx)]
                              .semantics
                        : "";
    };
    EXPECT_EQ(semanticsOf("net.rx.packets"), "delta");
    EXPECT_EQ(semanticsOf("dram.util"), "level");
    EXPECT_EQ(semanticsOf("req.lat.count"), "delta");
    EXPECT_EQ(semanticsOf("req.lat.mean"), "cumulative");
    EXPECT_EQ(semanticsOf("req.lat.p99"), "cumulative");

    EXPECT_DOUBLE_EQ(log.value(0, "net.rx.packets"), 10.0);
    EXPECT_DOUBLE_EQ(log.value(1, "net.rx.packets"), 5.0);
    EXPECT_DOUBLE_EQ(log.value(2, "net.rx.packets"), 0.0);
    EXPECT_DOUBLE_EQ(log.value(0, "dram.util"), 1.5);
    EXPECT_DOUBLE_EQ(log.value(1, "dram.util"), 2.5);
    EXPECT_DOUBLE_EQ(log.value(0, "req.lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(log.value(1, "req.lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(log.value(1, "req.lat.mean"), 6.0);
}

TEST(StreamRoundTrip, SecondHeaderMidFileKeepsEarlierRowsResolvable)
{
    // A restarted service appends a fresh header to the same stream
    // file, with columns renamed and reordered. Rows from the first
    // session must still resolve by name against the *first* header,
    // not be silently re-read through the second header's order.
    const std::string text =
        "{\"kind\":\"header\",\"t_seconds\":0.0,\"columns\":["
        "{\"name\":\"net.rx\",\"semantics\":\"delta\"},"
        "{\"name\":\"dram.util\",\"semantics\":\"level\"}]}\n"
        "{\"kind\":\"sample\",\"t_seconds\":0.005,"
        "\"values\":{\"net.rx\":10,\"dram.util\":1.5}}\n"
        "{\"kind\":\"sample\",\"t_seconds\":0.010,"
        "\"values\":{\"net.rx\":5,\"dram.util\":2.5}}\n"
        // --- restart: dram.util gone, columns reordered, one new ---
        "{\"kind\":\"header\",\"t_seconds\":0.0,\"columns\":["
        "{\"name\":\"llc.occ\",\"semantics\":\"level\"},"
        "{\"name\":\"net.rx\",\"semantics\":\"delta\"}]}\n"
        "{\"kind\":\"sample\",\"t_seconds\":0.005,"
        "\"values\":{\"llc.occ\":0.75,\"net.rx\":7}}\n";

    const StreamLog log = parseStream(text);
    EXPECT_EQ(log.bad_lines, 0u);
    EXPECT_EQ(log.header_count, 2u);
    ASSERT_EQ(log.sessions.size(), 2u);
    ASSERT_EQ(log.samples.size(), 3u);
    EXPECT_EQ(log.samples[0].session, 0u);
    EXPECT_EQ(log.samples[1].session, 0u);
    EXPECT_EQ(log.samples[2].session, 1u);

    // First-session rows read through the first header's table.
    EXPECT_DOUBLE_EQ(log.value(0, "net.rx"), 10.0);
    EXPECT_DOUBLE_EQ(log.value(0, "dram.util"), 1.5);
    EXPECT_DOUBLE_EQ(log.value(1, "net.rx"), 5.0);
    EXPECT_DOUBLE_EQ(log.value(1, "dram.util"), 2.5);
    // Second-session rows through the second (reordered) table.
    EXPECT_DOUBLE_EQ(log.value(2, "net.rx"), 7.0);
    EXPECT_DOUBLE_EQ(log.value(2, "llc.occ"), 0.75);
    // A column the sample's session never declared reads as 0.
    EXPECT_DOUBLE_EQ(log.value(2, "dram.util"), 0.0);

    // `columns` compat alias still mirrors the last header seen.
    EXPECT_EQ(log.columnIndex("llc.occ"), 0);
    EXPECT_EQ(log.columnIndex("net.rx"), 1);
    EXPECT_EQ(log.columnIndex("dram.util"), -1);
}

TEST(StreamRoundTrip, TruncatedTailToleratedNotCounted)
{
    TempFile tmp("stream_truncated");
    {
        JsonlFileExporter sink(tmp.path);
        sink.handle(makeRecord(StreamKind::Sample, 1.0));
        sink.handle(makeRecord(StreamKind::Sample, 2.0));
        sink.flush();
    }
    // Simulate a mid-write kill: an unterminated final line.
    {
        std::ofstream out(tmp.path, std::ios::app);
        out << "{\"kind\":\"sample\",\"t_seco";
    }
    bool ok = false;
    const StreamLog log = readStreamFile(tmp.path, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(log.truncated_tail);
    EXPECT_EQ(log.bad_lines, 0u);
}

TEST(Tracer, StreamsEventsIncrementallyWithBoundedWindow)
{
    StreamDispatcher dispatcher;
    CaptureExporter capture(kindBit(StreamKind::Trace));
    dispatcher.add(&capture);

    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setEventLimit(4);
    tracer.setStream(&dispatcher);
    for (int i = 0; i < 10; ++i)
        tracer.instant(0.1 * i, "test", "event",
                       {{"i", static_cast<double>(i)}});

    // Every event streamed the moment it was recorded...
    EXPECT_EQ(capture.records.size(), 10u);
    EXPECT_EQ(tracer.totalEvents(), 10u);
    // ...while the in-memory window stays bounded.
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_NE(capture.records[3].json.find("\"kind\":\"trace\""),
              std::string::npos);
    EXPECT_NE(json::parse(capture.records[3].json), nullptr);
}

TEST(TimeSeriesSampler, RowLimitBoundsMemoryButNotTheStream)
{
    MetricsRegistry reg;
    reg.counter("c");
    TimeSeriesSampler sampler(reg);
    StreamDispatcher dispatcher;
    CaptureExporter capture(kindBit(StreamKind::Sample));
    dispatcher.add(&capture);
    sampler.setStream(&dispatcher);
    sampler.setRowLimit(3);

    for (int i = 0; i < 8; ++i)
        sampler.sample(0.005 * (i + 1));

    EXPECT_EQ(sampler.rowCount(), 3u);
    EXPECT_EQ(sampler.totalSamples(), 8u);
    EXPECT_EQ(capture.records.size(), 8u);
    // Numeric view rides along with Sample records.
    ASSERT_NE(capture.records[7].columns, nullptr);
    EXPECT_EQ(capture.records[7].values.size(),
              capture.records[7].columns->size());
}

TEST(SocketPublisher, ServesASubscriberAndUnlinksItsPath)
{
    std::string dir =
        (std::filesystem::temp_directory_path() / "iatsim_pub_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const std::string path = dir + "/stream.sock";
    // A stale file at the path, as a killed service leaves it: the
    // publisher must replace it rather than fail to bind.
    std::ofstream(path) << "stale";

    const StreamRecord header = makeRecord(StreamKind::Header, 0.0);
    const StreamRecord sample = makeRecord(StreamKind::Sample, 1.0);
    {
        SocketPublisher publisher(path);
        ASSERT_TRUE(publisher.ok());

        const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(client, 0);
        const timeval timeout{2, 0}; // a lost line fails, not hangs
        ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(client,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof addr),
                  0);
        publisher.pump();
        EXPECT_EQ(publisher.subscriberCount(), 1u);

        publisher.handle(header);
        publisher.handle(sample);
        EXPECT_EQ(publisher.sent(), 2u);

        std::string received;
        char buf[512];
        while (std::count(received.begin(), received.end(), '\n') < 2) {
            const ssize_t n = ::recv(client, buf, sizeof buf, 0);
            if (n <= 0)
                break;
            received.append(buf, static_cast<std::size_t>(n));
        }
        ::close(client);
        EXPECT_EQ(received, header.json + '\n' + sample.json + '\n');
    }
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the destructor must unlink the socket file";
    std::filesystem::remove_all(dir);
}

TEST(SocketPublisher, OverlongPathLeavesTheSinkInert)
{
    const std::string path =
        "/tmp/" + std::string(sizeof(sockaddr_un{}.sun_path), 'x');
    SocketPublisher publisher(path);
    EXPECT_FALSE(publisher.ok());
    publisher.pump();
    publisher.handle(makeRecord(StreamKind::Sample, 1.0));
    EXPECT_EQ(publisher.sent(), 0u);
}

} // namespace
} // namespace iat::obs::stream
