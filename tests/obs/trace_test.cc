/**
 * @file
 * Tests for the decision tracer: enable gating, event recording, and
 * round-tripping the Chrome trace_event / JSONL serializations
 * through a real JSON parser.
 */

#include "obs/trace.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hh"

namespace iat::obs {
namespace {

Tracer
sampleTracer()
{
    Tracer t;
    t.setEnabled(true);
    t.instant(0.005, "fsm", "fsm.transition",
              {{"from", "LowKeep"}, {"to", "IoDemand"},
               {"tick", std::uint64_t{1}}});
    t.instant(0.010, "alloc", "alloc.way_mask",
              {{"tenant", "pmd"}, {"mask", "0x600"}, {"ways", 2u}});
    t.counter(0.010, "ddio", "ddio.pressure",
              {{"hits_per_s", 1.25e6}, {"misses_per_s", 3.5e4}});
    return t;
}

TEST(Tracer, DisabledByDefaultAndRecordsNothing)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    t.instant(0.0, "fsm", "fsm.transition");
    t.counter(0.0, "ddio", "ddio.pressure", {{"x", 1.0}});
    EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RecordsWhenEnabled)
{
    const Tracer t = sampleTracer();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.events()[0].phase, 'i');
    EXPECT_EQ(t.events()[2].phase, 'C');
    EXPECT_EQ(t.count("fsm", "fsm.transition"), 1u);
    EXPECT_EQ(t.count("alloc", "alloc.way_mask"), 1u);
    EXPECT_EQ(t.count("alloc", "nothing"), 0u);
}

TEST(Tracer, ClearEmpties)
{
    Tracer t = sampleTracer();
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.enabled());
}

TEST(TracerDeath, CounterTrackRejectsStringArgs)
{
    Tracer t;
    t.setEnabled(true);
    EXPECT_DEATH(t.counter(0.0, "ddio", "ddio.pressure",
                           {{"state", "IoDemand"}}),
                 "must be numeric");
}

TEST(Tracer, ChromeTraceParsesBack)
{
    std::ostringstream os;
    sampleTracer().writeChromeTrace(os);
    const auto root = json::parse(os.str());
    ASSERT_NE(root, nullptr) << os.str();
    ASSERT_EQ(root->kind, json::Value::Kind::Object);

    const auto *unit = root->find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->string, "ms");

    const auto *events = root->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, json::Value::Kind::Array);
    ASSERT_EQ(events->items.size(), 3u);

    // First event: instant, global scope, ts in microseconds.
    const auto &ev = *events->items[0];
    EXPECT_EQ(ev.find("name")->string, "fsm.transition");
    EXPECT_EQ(ev.find("cat")->string, "fsm");
    EXPECT_EQ(ev.find("ph")->string, "i");
    EXPECT_EQ(ev.find("s")->string, "g");
    EXPECT_DOUBLE_EQ(ev.find("ts")->number, 5000.0);
    EXPECT_DOUBLE_EQ(ev.find("pid")->number, 0.0);
    const auto *args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("from")->string, "LowKeep");
    EXPECT_EQ(args->find("to")->string, "IoDemand");
    EXPECT_DOUBLE_EQ(args->find("tick")->number, 1.0);

    // Counter track keeps numeric args and no scope field.
    const auto &track = *events->items[2];
    EXPECT_EQ(track.find("ph")->string, "C");
    EXPECT_EQ(track.find("s"), nullptr);
    EXPECT_DOUBLE_EQ(track.find("args")->find("hits_per_s")->number,
                     1.25e6);
}

TEST(Tracer, EmptyChromeTraceParsesBack)
{
    Tracer t;
    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto root = json::parse(os.str());
    ASSERT_NE(root, nullptr) << os.str();
    EXPECT_EQ(root->find("traceEvents")->items.size(), 0u);
}

TEST(Tracer, JsonlEveryLineParses)
{
    std::ostringstream os;
    sampleTracer().writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        const auto v = json::parse(line);
        ASSERT_NE(v, nullptr) << line;
        EXPECT_EQ(v->kind, json::Value::Kind::Object);
        EXPECT_NE(v->find("ts_seconds"), nullptr);
        EXPECT_EQ(v->find("ts"), nullptr); // seconds, not Chrome us
        ++lines;
    }
    EXPECT_EQ(lines, 3u);
}

TEST(Tracer, EscapesHostileStrings)
{
    Tracer t;
    t.setEnabled(true);
    t.instant(0.0, "cat\"egory", "na\\me",
              {{"k\ney", std::string("v\talue\x01")}});
    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto root = json::parse(os.str());
    ASSERT_NE(root, nullptr) << os.str();
    const auto &ev = *root->find("traceEvents")->items[0];
    EXPECT_EQ(ev.find("name")->string, "na\\me");
    EXPECT_EQ(ev.find("cat")->string, "cat\"egory");
}

TEST(Tracer, NonFiniteNumbersSerializeAsZero)
{
    Tracer t;
    t.setEnabled(true);
    t.counter(0.0, "c", "n", {{"bad", 0.0 / 0.0}});
    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto root = json::parse(os.str());
    ASSERT_NE(root, nullptr) << os.str();
}

TEST(Tracer, WriteFilePicksFormatBySuffix)
{
    const std::string dir = testing::TempDir();
    const std::string chrome = dir + "/iat_trace_test.json";
    const std::string jsonl = dir + "/iat_trace_test.jsonl";
    const Tracer t = sampleTracer();
    ASSERT_TRUE(t.writeFile(chrome));
    ASSERT_TRUE(t.writeFile(jsonl));

    std::ifstream cs(chrome);
    std::stringstream cbuf;
    cbuf << cs.rdbuf();
    const auto root = json::parse(cbuf.str());
    ASSERT_NE(root, nullptr);
    EXPECT_NE(root->find("traceEvents"), nullptr);

    std::ifstream js(jsonl);
    std::string first;
    ASSERT_TRUE(static_cast<bool>(std::getline(js, first)));
    const auto v = json::parse(first);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->find("ts_seconds"), nullptr);

    std::remove(chrome.c_str());
    std::remove(jsonl.c_str());
}

TEST(Tracer, WriteFileFailsOnBadPath)
{
    EXPECT_FALSE(sampleTracer().writeFile(
        "/nonexistent-dir-iatsim/trace.json"));
}

} // namespace
} // namespace iat::obs
