/**
 * @file
 * Fuzzer self-tests: clean trials pass, the sabotage hook proves the
 * failure path, the shrinker converges on the exact minimal failing
 * iteration, and shrunk failures serialize to replayable specs.
 */

#include "check/fuzz.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/spec.hh"
#include "util/rng.hh"

namespace iat::check {
namespace {

TEST(FuzzLlc, SmallSeededTrialsPass)
{
    iat::Rng seeds(101);
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint64_t seed = seeds.next();
        const std::string violation = fuzzLlcTrial(seed, 300);
        EXPECT_EQ(violation, "") << "seed " << seed;
    }
}

TEST(FuzzLlc, TrialsAreDeterministic)
{
    // Replayability is the whole point of seeded trials: two runs of
    // the same seed must agree (here: both clean).
    EXPECT_EQ(fuzzLlcTrial(42, 500), fuzzLlcTrial(42, 500));
    // And the sabotaged variant must produce the identical violation
    // text twice, exercising determinism on the failure path too.
    EXPECT_EQ(fuzzLlcTrial(42, 500, 250), fuzzLlcTrial(42, 500, 250));
}

TEST(FuzzLlc, SabotagedTrialFailsAndShrinksToTheExactOp)
{
    const std::uint64_t seed = 7;
    const std::uint64_t sabotage_op = 137;
    const std::string violation = fuzzLlcTrial(seed, 400, sabotage_op);
    ASSERT_NE(violation, "");
    EXPECT_NE(violation.find("sabotaged"), std::string::npos)
        << violation;

    // Prefix stability: the failure is invisible before the sabotage
    // point and present from it onward.
    EXPECT_EQ(fuzzLlcTrial(seed, sabotage_op - 1, sabotage_op), "");
    EXPECT_NE(fuzzLlcTrial(seed, sabotage_op, sabotage_op), "");

    const ShrunkFailure shrunk =
        shrinkLlcFailure(seed, 400, sabotage_op);
    EXPECT_EQ(shrunk.ops, sabotage_op);
    EXPECT_EQ(shrunk.seed, seed);
    EXPECT_EQ(shrunk.kind, "fuzz_llc");
    EXPECT_NE(shrunk.violation.find("sabotaged"), std::string::npos);
}

TEST(FuzzWorld, SmallSeededTrialsPass)
{
    iat::Rng seeds(202);
    for (int trial = 0; trial < 4; ++trial) {
        const std::uint64_t seed = seeds.next();
        const std::string violation = fuzzWorldTrial(seed, 40);
        EXPECT_EQ(violation, "") << "seed " << seed;
    }
}

TEST(FuzzWorld, ExplicitFaultPlanIsHonoured)
{
    const fault::FaultPlan plan = fault::FaultPlan::fromPairs(
        {{"fault.read_noise", "0.1"},
         {"fault.write_reject", "0.1"},
         {"fault.poll_drop", "0.05"}});
    ASSERT_TRUE(plan.any());
    iat::Rng seeds(303);
    for (int trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed = seeds.next();
        EXPECT_EQ(fuzzWorldTrial(seed, 30, &plan), "")
            << "seed " << seed;
    }
}

TEST(FuzzRepro, SpecRoundTripsAndNamesTheTrial)
{
    ShrunkFailure failure;
    failure.seed = 0xabcdef;
    failure.ops = 137;
    failure.kind = "fuzz_llc";
    failure.violation = "sabotaged op #137";

    const exp::ExperimentSpec spec =
        reproSpec(failure, {{"read_noise", "0.1"}});
    EXPECT_EQ(spec.sweep, "fuzz_llc");
    EXPECT_EQ(spec.seed, 0xabcdefull);
    EXPECT_EQ(spec.seed_mode, exp::ExperimentSpec::SeedMode::Shared);
    ASSERT_EQ(spec.constants.size(), 1u);
    EXPECT_EQ(spec.constants[0].first, "ops");
    EXPECT_EQ(spec.constants[0].second, "137");
    ASSERT_EQ(spec.fault.size(), 1u);
    EXPECT_EQ(spec.fault[0].first, "read_noise");

    // A repro file is only useful if the parser takes it back.
    const exp::ExperimentSpec back =
        exp::ExperimentSpec::parse(spec.serialize(), "repro");
    EXPECT_EQ(spec, back);
    EXPECT_EQ(back.trialCount(), 1u);
}

TEST(FuzzRepro, WriteReproFileCreatesAReadableSpec)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "iatsim_fuzz_repro_test";
    fs::remove_all(dir);

    ShrunkFailure failure;
    failure.seed = 99;
    failure.ops = 5;
    failure.kind = "fuzz_world";
    failure.violation = "example";

    const std::string path =
        writeReproFile(dir.string(), reproSpec(failure));
    EXPECT_NE(path.find("fuzz_repro_fuzz_world_99"),
              std::string::npos);

    const exp::ExperimentSpec spec = exp::ExperimentSpec::loadFile(path);
    EXPECT_EQ(spec.sweep, "fuzz_world");
    EXPECT_EQ(spec.seed, 99u);
    fs::remove_all(dir);
}

TEST(FuzzRepro, ShrunkWorldReproReplaysThroughTheTrialBody)
{
    // End to end with a synthetic failure: shrink a sabotaged LLC
    // trial, write the repro, reload it and re-run the trial with the
    // spec's parameters -- the violation must reappear verbatim.
    const ShrunkFailure shrunk = shrinkLlcFailure(31, 200, 41);
    ASSERT_EQ(shrunk.ops, 41u);

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "iatsim_fuzz_replay_test";
    fs::remove_all(dir);
    const std::string path =
        writeReproFile(dir.string(), reproSpec(shrunk));
    const exp::ExperimentSpec spec = exp::ExperimentSpec::loadFile(path);

    std::uint64_t ops = 0;
    for (const auto &[key, value] : spec.constants) {
        if (key == "ops")
            ops = std::stoull(value);
    }
    ASSERT_EQ(ops, 41u);
    // The sabotage op is synthetic state the spec cannot carry; what
    // the spec proves is that (seed, ops) replays the same stream.
    EXPECT_EQ(fuzzLlcTrial(spec.seed, ops, 41), shrunk.violation);
    fs::remove_all(dir);
}

} // namespace
} // namespace iat::check
