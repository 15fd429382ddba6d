/**
 * @file
 * End-to-end campaign tests on a toy sweep: record layout, --jobs
 * determinism of results.jsonl, resume semantics (skip finished
 * trials, retry failures, refuse foreign directories).
 */

#include "exp/campaign.hh"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
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
                     (std::string("iatsim_campaign_") +
                      info->test_suite_name() + "_" + info->name());
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

const char *const kSpecText =
    "name = toy-campaign\n"
    "sweep = toy\n"
    "seed = 5\n"
    "[axis]\n"
    "a = 1 2\n"
    "b = 10 20 30\n";

/** val = a * b, scaled; deterministic pure function of the context. */
TrialRegistry
toyRegistry()
{
    TrialRegistry registry;
    registry.add("toy", "toy sweep", [](const TrialContext &ctx) {
        TrialResult result;
        result.add("val", static_cast<double>(ctx.requireInt("a") *
                                              ctx.requireInt("b")) *
                              ctx.scale);
        result.add("seed", static_cast<double>(ctx.seed));
        return result;
    });
    return registry;
}

CampaignOptions
makeOptions(const std::filesystem::path &out, unsigned jobs)
{
    CampaignOptions options;
    options.out_dir = out.string();
    options.jobs = jobs;
    options.progress = false;
    return options;
}

TEST(Campaign, EndToEnd)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    const auto summary =
        runCampaign(spec, registry, makeOptions(dir, 1));
    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.spec_hash, spec.hash(1.0));
    EXPECT_EQ(summary.stats.total, 6u);
    EXPECT_EQ(summary.stats.ran, 6u);
    EXPECT_EQ(summary.stats.ok, 6u);
    EXPECT_EQ(summary.stats.failed, 0u);
    EXPECT_EQ(summary.stats.skipped, 0u);
    EXPECT_EQ(summary.stats.trial_wall_seconds.size(), 6u);

    const auto records = readRecordsFile(summary.results_path);
    ASSERT_EQ(records.size(), 6u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].trial, i); // canonical order
        EXPECT_EQ(records[i].spec_hash, summary.spec_hash);
        EXPECT_EQ(records[i].status, TrialStatus::Ok);
    }
    EXPECT_TRUE(std::filesystem::exists(summary.manifest_path));

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResultsIdenticalAcrossJobs)
{
    // The acceptance property: --jobs=N results.jsonl is
    // byte-identical to --jobs=1.
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    const auto serial =
        runCampaign(spec, registry, makeOptions(dir / "j1", 1));
    const auto parallel =
        runCampaign(spec, registry, makeOptions(dir / "j4", 4));
    ASSERT_TRUE(serial.complete);
    ASSERT_TRUE(parallel.complete);
    EXPECT_EQ(slurp(serial.results_path),
              slurp(parallel.results_path));

    std::filesystem::remove_all(dir);
}

TEST(Campaign, QuickScaleChangesHashAndMetrics)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    auto options = makeOptions(dir, 1);
    options.quick = true;
    const auto summary = runCampaign(spec, registry, options);
    EXPECT_EQ(summary.spec_hash, spec.hash(kQuickScale));
    EXPECT_NE(summary.spec_hash, spec.hash(1.0));

    std::filesystem::remove_all(dir);
}

TEST(Campaign, UnknownSweepListsRegistered)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse("sweep = nope\n");
    const auto registry = toyRegistry();
    try {
        runCampaign(spec, registry, makeOptions(dir, 1));
        FAIL() << "expected throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown sweep 'nope'"),
                  std::string::npos);
        EXPECT_NE(what.find("toy"), std::string::npos);
    }
    std::filesystem::remove_all(dir);
}

TEST(Campaign, ExistingResultsNeedResume)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    runCampaign(spec, registry, makeOptions(dir, 1));
    // Same directory again without --resume: refuse, don't clobber.
    EXPECT_THROW(runCampaign(spec, registry, makeOptions(dir, 1)),
                 std::runtime_error);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResumeSkipsFinishedTrials)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    const auto first =
        runCampaign(spec, registry, makeOptions(dir, 1));
    const auto before = slurp(first.results_path);

    auto options = makeOptions(dir, 2);
    options.resume = true;
    const auto second = runCampaign(spec, registry, options);
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(second.stats.skipped, 6u);
    EXPECT_EQ(second.stats.ran, 0u);
    EXPECT_EQ(slurp(second.results_path), before);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ExpectationsCoverResumedRecords)
{
    const auto dir = testDir();
    // val = a * b: 10..60 over the six trials.
    const auto spec = ExperimentSpec::parse(
        std::string(kSpecText) +
        "[expect]\n"
        "val >= 10\n"
        "val[a=2] > 1.5 * val[a=1,b=10]\n"
        "val[b=10] < 20\n");
    ASSERT_EQ(spec.hash(1.0), ExperimentSpec::parse(kSpecText).hash(1.0));
    const auto registry = toyRegistry();

    const auto first =
        runCampaign(spec, registry, makeOptions(dir, 1));
    ASSERT_EQ(first.verdicts.size(), 3u);
    EXPECT_TRUE(first.verdicts[0].pass) << first.verdicts[0].detail;
    EXPECT_TRUE(first.verdicts[1].pass) << first.verdicts[1].detail;
    // a=2,b=10 gives 20: the third line fails on trial 3.
    EXPECT_FALSE(first.verdicts[2].pass);
    EXPECT_EQ(first.verdicts[2].detail, "trial 3: 20 vs 20");

    // A resume that runs nothing checks the recorded trials.
    auto options = makeOptions(dir, 2);
    options.resume = true;
    const auto second = runCampaign(spec, registry, options);
    EXPECT_EQ(second.stats.ran, 0u);
    ASSERT_EQ(second.verdicts.size(), 3u);
    EXPECT_TRUE(second.verdicts[0].pass);
    EXPECT_EQ(second.verdicts[0].detail, "6 records vs 10");
    EXPECT_FALSE(second.verdicts[2].pass);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResumeRunsOnlyMissingTrials)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto registry = toyRegistry();

    // Simulate a killed campaign: records for trials 0, 2, 4 only,
    // plus the truncated tail a kill mid-write can leave.
    const auto complete =
        runCampaign(spec, registry, makeOptions(dir / "ref", 1));
    std::filesystem::create_directories(dir / "killed");
    const auto killed_path = (dir / "killed" / "results.jsonl").string();
    const auto records = readRecordsFile(complete.results_path);
    ASSERT_EQ(records.size(), 6u);
    for (const std::size_t i : {0u, 2u, 4u})
        ASSERT_TRUE(appendLine(killed_path, records[i].line));
    {
        // The torn tail: half a record and no trailing newline,
        // exactly what a kill inside appendLine leaves. Resume must
        // not let the next appended record merge into it.
        std::ofstream tail(killed_path, std::ios::app);
        tail << records[5].line.substr(0, 20);
    }

    auto options = makeOptions(dir / "killed", 2);
    options.resume = true;
    const auto resumed = runCampaign(spec, registry, options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.stats.skipped, 3u);
    EXPECT_EQ(resumed.stats.ran, 3u);
    // Canonicalization drops the truncated tail and restores the
    // byte-identical complete file.
    EXPECT_EQ(slurp(resumed.results_path),
              slurp(complete.results_path));

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ResumeRefusesForeignSpecHash)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);
    const auto other = ExperimentSpec::parse(
        "name = toy-campaign\nsweep = toy\nseed = 6\n"
        "[axis]\na = 1 2\nb = 10 20 30\n");
    const auto registry = toyRegistry();

    runCampaign(spec, registry, makeOptions(dir, 1));
    auto options = makeOptions(dir, 1);
    options.resume = true;
    try {
        runCampaign(other, registry, options);
        FAIL() << "expected throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("different campaign"),
                  std::string::npos)
            << e.what();
    }

    std::filesystem::remove_all(dir);
}

TEST(Campaign, RetryFailedRerunsFailures)
{
    const auto dir = testDir();
    const auto spec = ExperimentSpec::parse(kSpecText);

    bool heal = false;
    TrialRegistry registry;
    registry.add("toy", "flaky toy", [&](const TrialContext &ctx) {
        if (!heal && ctx.index == 3)
            throw std::runtime_error("flaky");
        TrialResult result;
        result.add("val", static_cast<double>(ctx.index));
        return result;
    });

    const auto first =
        runCampaign(spec, registry, makeOptions(dir, 1));
    EXPECT_TRUE(first.complete); // failed trials still have records
    EXPECT_EQ(first.stats.failed, 1u);

    // Plain resume honors the failed record as terminal.
    auto options = makeOptions(dir, 1);
    options.resume = true;
    const auto second = runCampaign(spec, registry, options);
    EXPECT_EQ(second.stats.ran, 0u);

    // --retry-failed reruns it; the rerun's record supersedes.
    heal = true;
    options.retry_failed = true;
    const auto third = runCampaign(spec, registry, options);
    EXPECT_TRUE(third.complete);
    EXPECT_EQ(third.stats.skipped, 5u);
    EXPECT_EQ(third.stats.ran, 1u);
    EXPECT_EQ(third.stats.ok, 1u);

    const auto records = readRecordsFile(third.results_path);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[3].trial, 3u);
    EXPECT_EQ(records[3].status, TrialStatus::Ok);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace iat::exp
