/**
 * @file
 * Tests for the bench-side sweep registration: the shipped .exp specs
 * parse and reference registered sweeps, the policy labels stay
 * distinct, the cheap l3fwd probe is deterministic through the
 * full trial interface, and a solo co-run pass runs only the app it
 * measures.
 */

#include "bench/sweeps.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/spec.hh"

namespace iat::bench {
namespace {

exp::TrialRegistry
paperRegistry()
{
    exp::TrialRegistry registry;
    registerPaperSweeps(registry);
    return registry;
}

TEST(Sweeps, PaperSweepsRegistered)
{
    const auto registry = paperRegistry();
    for (const char *name :
         {"fig03", "fig09", "fig10", "l3fwd", "chaos"})
        EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.entries().size(), 5u);
}

TEST(Sweeps, ShippedSpecsParseAndResolve)
{
    const auto registry = paperRegistry();
    const struct
    {
        const char *file;
        const char *sweep;
        std::size_t trials;
    } expected[] = {
        {"fig03_rx_ring.exp", "fig03", 14},
        {"fig09_flow_count.exp", "fig09", 2},
        {"fig10_shuffle.exp", "fig10", 12},
        {"smoke.exp", "l3fwd", 4},
        {"chaos.exp", "chaos", 4},
    };
    for (const auto &e : expected) {
        const auto spec = exp::ExperimentSpec::loadFile(
            std::string(IATSIM_SOURCE_DIR) + "/experiments/" + e.file);
        EXPECT_EQ(spec.sweep, e.sweep) << e.file;
        EXPECT_EQ(spec.trialCount(), e.trials) << e.file;
        EXPECT_NE(registry.find(spec.sweep), nullptr) << e.file;
    }
}

TEST(Sweeps, FigSpecsShareTheCampaignSeed)
{
    // A paper figure runs one seed across all its cases, so the
    // figure specs pin seed_mode = shared.
    for (const char *file : {"fig03_rx_ring.exp",
                             "fig09_flow_count.exp",
                             "fig10_shuffle.exp"}) {
        const auto spec = exp::ExperimentSpec::loadFile(
            std::string(IATSIM_SOURCE_DIR) + "/experiments/" + file);
        EXPECT_EQ(spec.seed_mode,
                  exp::ExperimentSpec::SeedMode::Shared)
            << file;
        EXPECT_EQ(spec.seed, 1u) << file;
    }
}

TEST(Sweeps, PolicyLabels)
{
    using core::PolicyKind;
    // Machine labels are distinct per policy: the footnote-3 ablation
    // records apart from the full daemon.
    EXPECT_STREQ(core::toString(PolicyKind::Iat), "IAT");
    EXPECT_STREQ(core::toString(PolicyKind::IatNoDdio), "IAT-noddio");
}

TEST(Sweeps, ParsePolicyRoundTripsEveryLabel)
{
    // Every policy a shipped per-node spec names, as a constant or on
    // an axis, parses to a registered kind whose machine label parses
    // back to the same kind: a typo fails here, not mid-campaign.
    std::size_t labels = 0;
    for (const char *file :
         {"fig09_flow_count.exp", "fig10_shuffle.exp", "chaos.exp",
          "bakeoff.exp", "bakeoff_smoke.exp"}) {
        const auto spec = exp::ExperimentSpec::loadFile(
            std::string(IATSIM_SOURCE_DIR) + "/experiments/" + file);
        std::vector<std::string> names;
        for (const auto &[key, value] : spec.constants) {
            if (key == "policy")
                names.push_back(value);
        }
        for (const auto &axis : spec.axes) {
            if (axis.name == "policy")
                names.insert(names.end(), axis.values.begin(),
                             axis.values.end());
        }
        EXPECT_FALSE(names.empty()) << file;
        for (const auto &name : names) {
            core::PolicyKind kind;
            ASSERT_TRUE(core::parsePolicyKind(name, kind))
                << file << ": " << name;
            core::PolicyKind reparsed;
            ASSERT_TRUE(
                core::parsePolicyKind(core::toString(kind), reparsed))
                << core::toString(kind);
            EXPECT_EQ(reparsed, kind) << file << ": " << name;
            ++labels;
        }
    }
    EXPECT_EQ(labels, 19u);
    core::PolicyKind parsed;
    EXPECT_FALSE(core::parsePolicyKind("bogus", parsed));
}

TEST(Sweeps, L3fwdTrialIsDeterministic)
{
    const auto registry = paperRegistry();
    const auto *entry = registry.find("l3fwd");
    ASSERT_NE(entry, nullptr);

    exp::TrialContext ctx;
    ctx.sweep = "l3fwd";
    ctx.index = 0;
    ctx.seed = 42;
    ctx.scale = 0.1; // tiny window; keeps the test fast
    ctx.params = {{"frame_bytes", "64"},
                  {"ring_entries", "128"},
                  {"rate_mpps", "2.0"}};

    const auto a = entry->fn(ctx);
    const auto b = entry->fn(ctx);
    ASSERT_FALSE(a.metrics.empty());
    EXPECT_EQ(a.metrics, b.metrics);
    // The probe actually forwarded traffic.
    EXPECT_GT(a.metrics[0].second, 0.0); // offered
}

TEST(Sweeps, L3fwdTrialRequiresRate)
{
    const auto registry = paperRegistry();
    const auto *entry = registry.find("l3fwd");
    ASSERT_NE(entry, nullptr);
    exp::TrialContext ctx;
    ctx.sweep = "l3fwd";
    ctx.scale = 0.1;
    EXPECT_THROW(entry->fn(ctx), std::runtime_error);
}

/** What a co-run pass leaves running: each app's window progress. */
struct Activity
{
    std::uint64_t pc_app = 0;
    std::uint64_t networking = 0;
};

Activity
soloActivity(const CorunSetup &setup)
{
    scenarios::CorunConfig cfg;
    cfg.net_app = scenarios::CorunConfig::NetApp::Redis;
    cfg.pc_app = "rocksdb";
    return corunPass(cfg, setup, 0.1,
                     [](scenarios::CorunWorld &world, double) {
                         return Activity{world.pcAppProgress(),
                                         world.delivered()};
                     });
}

TEST(CorunPass, SoloRunsOnlyTheMeasuredApp)
{
    // Fig 14's reference: Redis alone, RocksDB paused.
    const Activity net =
        soloActivity({.solo = true, .solo_networking = true});
    EXPECT_EQ(net.pc_app, 0u);
    EXPECT_GT(net.networking, 0u);

    // Figs 12 and 13's reference: the PC app alone.
    const Activity pc = soloActivity({.solo = true});
    EXPECT_GT(pc.pc_app, 0u);
    EXPECT_EQ(pc.networking, 0u);
}

} // namespace
} // namespace iat::bench
