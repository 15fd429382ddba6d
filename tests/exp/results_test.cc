/**
 * @file
 * Unit tests for result-record serialization, the tolerant resume
 * reader, and results.jsonl canonicalization.
 */

#include "exp/results.hh"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace iat::exp {
namespace {

/** Fresh per-test-case scratch dir (ctest may run cases in parallel). */
std::filesystem::path
testDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const auto dir = std::filesystem::temp_directory_path() /
                     (std::string("iatsim_results_") +
                      info->test_suite_name() + "_" + info->name());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TrialContext
makeCtx(std::size_t index, std::uint64_t seed)
{
    TrialContext ctx;
    ctx.sweep = "toy";
    ctx.index = index;
    ctx.seed = seed;
    ctx.params = {{"a", "1"}, {"b", "x"}};
    return ctx;
}

TEST(Results, SerializeRecordKeyOrder)
{
    TrialOutcome outcome;
    outcome.result.add("m1", 0.5);
    outcome.result.add("m2", 3);
    outcome.wall_seconds = 123.0; // nondeterministic; must not appear
    EXPECT_EQ(
        serializeRecord("deadbeef", makeCtx(4, 7), outcome),
        "{\"spec_hash\":\"deadbeef\",\"sweep\":\"toy\",\"trial\":4,"
        "\"seed\":7,\"params\":{\"a\":\"1\",\"b\":\"x\"},"
        "\"status\":\"ok\",\"metrics\":{\"m1\":0.5,\"m2\":3}}");
}

TEST(Results, FailedRecordCarriesError)
{
    TrialOutcome outcome;
    outcome.status = TrialStatus::Failed;
    outcome.error = "bad \"value\"";
    const auto line = serializeRecord("h", makeCtx(0, 1), outcome);
    EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(line.find("\"error\":\"bad \\\"value\\\"\""),
              std::string::npos);
}

TEST(Results, JsonNumber)
{
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(-3), "-3");
    EXPECT_EQ(jsonNumber(0.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    // %.17g round-trips doubles exactly.
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
}

TEST(Results, JsonEscape)
{
    // Every string field of a record goes through the shared escaper:
    // quotes, backslashes and control characters come out escaped and
    // the one-line record still reads back.
    TrialContext ctx = makeCtx(0, 1);
    ctx.sweep = "a\"b\\c\nd\te";
    ctx.params = {{"k", std::string(1, '\x01')}};
    const std::string hash = "h\"\\\n";
    const auto line = serializeRecord(hash, ctx, TrialOutcome{});
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("\"sweep\":\"a\\\"b\\\\c\\nd\\te\""),
              std::string::npos);
    EXPECT_NE(line.find("\"k\":\"\\u0001\""), std::string::npos);
    const auto records = readRecords(line + "\n");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].spec_hash, hash);
    EXPECT_EQ(records[0].line, line);
}

TEST(Results, ReadRecordsSkipsGarbage)
{
    TrialOutcome ok;
    const auto good0 = serializeRecord("h", makeCtx(0, 1), ok);
    const auto good2 = serializeRecord("h", makeCtx(2, 1), ok);
    const auto records = readRecords(
        good0 + "\n" +
        "not json at all\n"
        "{\"foreign\":true}\n" +
        good2.substr(0, good2.size() / 2) + "\n" + // truncated tail
        good2 + "\n");
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].trial, 0u);
    EXPECT_EQ(records[0].spec_hash, "h");
    EXPECT_EQ(records[0].status, TrialStatus::Ok);
    EXPECT_EQ(records[1].trial, 2u);
    EXPECT_EQ(records[1].line, good2);
}

TEST(Results, ReadRecordsFileMissingIsEmpty)
{
    EXPECT_TRUE(readRecordsFile("/nonexistent/results.jsonl").empty());
}

TEST(Results, CanonicalizeSortsAndLastWins)
{
    const auto dir = testDir();
    const auto path = (dir / "results.jsonl").string();

    TrialOutcome ok;
    TrialOutcome failed;
    failed.status = TrialStatus::Failed;
    failed.error = "boom";
    // Completion order 2, 0, 1; trial 1 failed then was retried.
    ASSERT_TRUE(
        appendLine(path, serializeRecord("h", makeCtx(2, 1), ok)));
    ASSERT_TRUE(
        appendLine(path, serializeRecord("h", makeCtx(0, 1), failed)));
    ASSERT_TRUE(
        appendLine(path, serializeRecord("h", makeCtx(1, 1), failed)));
    ASSERT_TRUE(
        appendLine(path, serializeRecord("h", makeCtx(1, 1), ok)));

    ASSERT_TRUE(canonicalizeResults(path));
    const auto records = readRecordsFile(path);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].trial, 0u);
    EXPECT_EQ(records[0].status, TrialStatus::Failed);
    EXPECT_EQ(records[1].trial, 1u);
    EXPECT_EQ(records[1].status, TrialStatus::Ok); // retry superseded
    EXPECT_EQ(records[2].trial, 2u);

    std::filesystem::remove_all(dir);
}

TEST(Results, WriteManifest)
{
    const auto dir = testDir();
    const auto path = (dir / "manifest.json").string();

    const auto spec = ExperimentSpec::parse(
        "name = demo\nsweep = toy\nseed = 9\n"
        "[params]\nburst = 8\n[axis]\na = 1 2\n");
    RunStats stats;
    stats.jobs = 4;
    stats.total = 2;
    stats.ran = 2;
    stats.ok = 2;
    stats.wall_seconds = 1.5;
    stats.trial_wall_seconds = {{0, 0.25}, {1, 0.75}};
    ASSERT_TRUE(writeManifest(path, spec, 1.0, stats));

    const auto text = slurp(path);
    EXPECT_NE(text.find("\"campaign\": \"demo\""), std::string::npos);
    EXPECT_NE(text.find("\"spec_hash\": \"" + spec.hash(1.0) + "\""),
              std::string::npos);
    EXPECT_NE(text.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(text.find("\"a\": [\"1\", \"2\"]"), std::string::npos);
    EXPECT_NE(text.find("\"trial_wall_s\""), std::string::npos);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace iat::exp
