/**
 * @file
 * Unit tests for experiment-spec parsing, hashing, cross-product
 * expansion, trial-seed derivation, and TrialContext getters.
 */

#include "exp/spec.hh"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hh"

namespace iat::exp {
namespace {

TEST(Spec, ParseFull)
{
    const auto spec = ExperimentSpec::parse(
        "# leading comment\n"
        "name = demo     ; trailing comment\n"
        "sweep = toy\n"
        "seed = 99\n"
        "seed_mode = shared\n"
        "\n"
        "[params]\n"
        "burst = 32\n"
        "\n"
        "[axis]\n"
        "frame = 64, 1500\n"
        "ring = 1024 512 64\n");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.sweep, "toy");
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_EQ(spec.seed_mode, ExperimentSpec::SeedMode::Shared);
    ASSERT_EQ(spec.constants.size(), 1u);
    EXPECT_EQ(spec.constants[0].first, "burst");
    EXPECT_EQ(spec.constants[0].second, "32");
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].name, "frame");
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"64", "1500"}));
    EXPECT_EQ(spec.axes[1].values,
              (std::vector<std::string>{"1024", "512", "64"}));
    EXPECT_EQ(spec.trialCount(), 6u);
}

TEST(Spec, Defaults)
{
    const auto spec = ExperimentSpec::parse("sweep = toy\n");
    EXPECT_EQ(spec.name, "toy"); // name defaults to the sweep
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.seed_mode, ExperimentSpec::SeedMode::Derived);
    EXPECT_TRUE(spec.axes.empty());
    EXPECT_EQ(spec.trialCount(), 1u); // empty cross product = 1 trial
}

TEST(Spec, ParseErrors)
{
    EXPECT_THROW(ExperimentSpec::parse("name = x\n"), SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\nbogus = 1\n"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\n[weird]\n"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\n[axis\n"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\nseed = abc\n"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\nseed_mode = x\n"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\n[axis]\na =\n"),
                 SpecError);
    EXPECT_THROW(
        ExperimentSpec::parse("sweep = t\n[axis]\na = 1\na = 2\n"),
        SpecError);
    EXPECT_THROW(
        ExperimentSpec::parse("sweep = t\n[params]\np = 1\np = 2\n"),
        SpecError);
    EXPECT_THROW(ExperimentSpec::parse("sweep = t\nno equals sign\n"),
                 SpecError);
}

TEST(Spec, ErrorCarriesOriginAndLine)
{
    try {
        ExperimentSpec::parse("sweep = t\nbogus = 1\n", "demo.exp");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("demo.exp:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Spec, ParseExpect)
{
    const auto spec = ExperimentSpec::parse(
        "sweep = t\n"
        "[expect]\n"
        "tx[faults=1, hardening=1] >= 0.9 * tx[faults=0 hardening=1]\n"
        "jain<=1\n"
        "drift[faults=0] == 0\n");
    ASSERT_EQ(spec.expect.size(), 3u);
    const auto &ab = spec.expect[0];
    EXPECT_EQ(ab.lhs.metric, "tx");
    EXPECT_EQ(ab.lhs.selector,
              (std::vector<std::pair<std::string, std::string>>{
                  {"faults", "1"}, {"hardening", "1"}}));
    EXPECT_EQ(ab.op, Expectation::Op::Ge);
    EXPECT_EQ(ab.factor, 0.9);
    EXPECT_EQ(ab.rhs.metric, "tx");
    EXPECT_EQ(ab.rhs.selector.size(), 2u);
    EXPECT_EQ(ab.text(),
              "tx[faults=1,hardening=1] >= 0.9 * tx[faults=0,hardening=1]");
    EXPECT_EQ(spec.expect[1].op, Expectation::Op::Le);
    EXPECT_TRUE(spec.expect[1].lhs.selector.empty());
    EXPECT_TRUE(spec.expect[1].rhs.metric.empty());
    EXPECT_EQ(spec.expect[1].number, 1.0);
    EXPECT_EQ(spec.expect[2].text(), "drift[faults=0] == 0");
}

TEST(Spec, ExpectErrorsNameTheLine)
{
    const struct
    {
        const char *line;
        const char *error;
    } bad[] = {
        {"jain = 1", "'jain = 1' is not metric[selector] op"},
        {"jain != 1", "is not metric[selector] op"},
        {"jain => 1", "is not metric[selector] op"},
        {"jain", "is not metric[selector] op"},
        {"jain 0.5", "is not metric[selector] op"},
        {"tx[faults=1 < 2", "is not metric[selector] op"},
        {"tx [faults=1] < 2", "is not metric[selector] op"},
        {"jain <", "is not metric[selector] op"},
        {"jain < 2 *", "is not metric[selector] op"},
        {"jain < 1 2", "is not metric[selector] op"},
        {"< 1", "is not metric[selector] op"},
        {"tx[faults] < 2", "selector expects param=value, got 'faults'"},
        {"tx[=1] < 2", "selector expects param=value"},
        {"tx < y[a=1=2]", "selector expects param=value"},
        {"jain < 1x", "expected a number, got '1x'"},
        {"jain < 1e999", "expected a number, got '1e999'"},
        {"jain < 0.5x * y", "expected a number, got '0.5x'"},
    };
    for (const auto &b : bad) {
        SCOPED_TRACE(b.line);
        try {
            ExperimentSpec::parse(
                std::string("sweep = t\n[expect]\n") + b.line + "\n",
                "x.exp");
            ADD_FAILURE() << "expected SpecError";
        } catch (const SpecError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("x.exp:3: "), std::string::npos) << what;
            EXPECT_NE(what.find(b.error), std::string::npos) << what;
        }
    }
}

TEST(Spec, ExpectLeavesHashAndExpansionUnchanged)
{
    const std::string text = "name = ab\nsweep = chaos\nseed = 3\n"
                             "[axis]\nfaults = 1 0\n"
                             "[fault]\nwrite_reject = 0.25\n";
    const auto plain = ExperimentSpec::parse(text);
    const auto gated = ExperimentSpec::parse(
        text + "[expect]\ntx[faults=1] >= 0.9 * tx[faults=0]\n");
    ASSERT_EQ(gated.expect.size(), 1u);
    EXPECT_NE(plain, gated);
    for (const double scale : {1.0, 0.3}) {
        EXPECT_EQ(plain.canonical(scale), gated.canonical(scale));
        EXPECT_EQ(plain.hash(scale), gated.hash(scale));
        const auto a = plain.expand(scale);
        const auto b = gated.expand(scale);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].seed, b[i].seed);
            EXPECT_EQ(a[i].params, b[i].params);
            EXPECT_EQ(a[i].fault_hash, b[i].fault_hash);
        }
    }
}

TEST(Spec, ExpansionOrderLastAxisFastest)
{
    const auto spec = ExperimentSpec::parse(
        "sweep = toy\n"
        "[params]\nburst = 8\n"
        "[axis]\na = 1 2\nb = x y z\n");
    const auto trials = spec.expand(1.0);
    ASSERT_EQ(trials.size(), 6u);
    const char *expect_a[] = {"1", "1", "1", "2", "2", "2"};
    const char *expect_b[] = {"x", "y", "z", "x", "y", "z"};
    for (std::size_t i = 0; i < trials.size(); ++i) {
        EXPECT_EQ(trials[i].index, i);
        EXPECT_EQ(trials[i].sweep, "toy");
        ASSERT_EQ(trials[i].params.size(), 3u);
        // Axes in file order, then constants.
        EXPECT_EQ(trials[i].params[0].first, "a");
        EXPECT_EQ(trials[i].params[0].second, expect_a[i]);
        EXPECT_EQ(trials[i].params[1].first, "b");
        EXPECT_EQ(trials[i].params[1].second, expect_b[i]);
        EXPECT_EQ(trials[i].params[2].first, "burst");
        EXPECT_EQ(trials[i].params[2].second, "8");
    }
}

TEST(Spec, SharedSeedMode)
{
    const auto spec = ExperimentSpec::parse(
        "sweep = toy\nseed = 7\nseed_mode = shared\n"
        "[axis]\na = 1 2 3\n");
    for (const auto &trial : spec.expand(1.0))
        EXPECT_EQ(trial.seed, 7u);
}

TEST(Spec, DerivedSeedsAreDistinctAndStable)
{
    const auto spec = ExperimentSpec::parse(
        "sweep = toy\nseed = 7\n[axis]\na = 1 2 3 4\n");
    const auto trials = spec.expand(1.0);
    std::set<std::uint64_t> seeds;
    for (const auto &trial : trials) {
        EXPECT_EQ(trial.seed, deriveTrialSeed(7, trial.index));
        seeds.insert(trial.seed);
    }
    EXPECT_EQ(seeds.size(), trials.size());
}

TEST(Spec, DeriveTrialSeedMatchesSplitmixStream)
{
    // deriveTrialSeed(s, k) must be the k-th output of the sequential
    // splitmix64 stream seeded with s -- the jump is an optimization,
    // not a different generator.
    std::uint64_t state = 12345;
    for (std::uint64_t k = 0; k < 16; ++k) {
        const std::uint64_t sequential = splitmix64Next(state);
        EXPECT_EQ(deriveTrialSeed(12345, k), sequential) << k;
    }
}

TEST(Spec, HashStableAcrossFormatting)
{
    // Comments and spacing don't define trial identity.
    const auto a = ExperimentSpec::parse(
        "sweep = toy\nseed = 5\n[axis]\nx = 1 2\n");
    const auto b = ExperimentSpec::parse(
        "# different text\n"
        "sweep=toy   ; same campaign\n"
        "seed=5\n"
        "[axis]\n"
        "x = 1, 2\n");
    EXPECT_EQ(a.hash(1.0), b.hash(1.0));
    EXPECT_EQ(a.hash(1.0).size(), 16u);
}

TEST(Spec, HashSensitiveToContentAndScale)
{
    const auto base =
        ExperimentSpec::parse("sweep = toy\n[axis]\nx = 1 2\n");
    const auto reseeded =
        ExperimentSpec::parse("sweep = toy\nseed = 2\n[axis]\nx = 1 2\n");
    const auto reordered =
        ExperimentSpec::parse("sweep = toy\n[axis]\nx = 2 1\n");
    EXPECT_NE(base.hash(1.0), reseeded.hash(1.0));
    EXPECT_NE(base.hash(1.0), reordered.hash(1.0));
    // --quick records must not mix with full-scale ones.
    EXPECT_NE(base.hash(1.0), base.hash(0.3));
}

TEST(Spec, Fnv1a64KnownVector)
{
    // Standard FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(TrialContext, TypedGetters)
{
    TrialContext ctx;
    ctx.params = {{"n", "42"}, {"rate", "1.5"}, {"name", "x"},
                  {"on", "true"}, {"off", "false"}};
    EXPECT_EQ(ctx.getInt("n", 0), 42);
    EXPECT_DOUBLE_EQ(ctx.getDouble("rate", 0.0), 1.5);
    EXPECT_EQ(ctx.getString("name", ""), "x");
    EXPECT_TRUE(ctx.getBool("on"));
    EXPECT_FALSE(ctx.getBool("off", true));
    EXPECT_EQ(ctx.getInt("missing", 9), 9);
    EXPECT_EQ(ctx.requireInt("n"), 42);
    EXPECT_DOUBLE_EQ(ctx.requireDouble("rate"), 1.5);
    EXPECT_EQ(ctx.requireString("name"), "x");
    EXPECT_EQ(ctx.find("nope"), nullptr);
}

TEST(TrialContext, GettersThrowNotExit)
{
    // Unlike CliArgs, trial parameter errors must stay trial-local.
    TrialContext ctx;
    ctx.params = {{"n", "abc"}};
    EXPECT_THROW(ctx.getInt("n", 0), std::runtime_error);
    EXPECT_THROW(ctx.getDouble("n", 0.0), std::runtime_error);
    EXPECT_THROW(ctx.requireInt("missing"), std::runtime_error);
    EXPECT_THROW(ctx.requireDouble("missing"), std::runtime_error);
    EXPECT_THROW(ctx.requireString("missing"), std::runtime_error);
}

} // namespace
} // namespace iat::exp
