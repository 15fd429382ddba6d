/**
 * @file
 * Chaos campaign tests: seeded fault campaigns over the full
 * agg_testpmd ramp must not crash, must keep throughput loss
 * bounded, and must replay deterministically (same seed -> identical
 * results). Runs at a tiny scale so the whole suite stays fast.
 */

#include "bench/sweeps.hh"

#include <gtest/gtest.h>

#include <string>

#include "exp/spec.hh"
#include "fault/plan.hh"

namespace iat::bench {
namespace {

constexpr double kScale = 0.1; // tiny windows; keeps the test fast
constexpr auto kIat = core::PolicyKind::Iat;

/** The shipped chaos.exp reference plan, loaded from the spec so the
 *  test and the campaign can never drift apart. */
fault::FaultPlan
shippedPlan()
{
    const auto spec = exp::ExperimentSpec::loadFile(
        std::string(IATSIM_SOURCE_DIR) + "/experiments/chaos.exp");
    fault::FaultPlan plan;
    for (const auto &[key, value] : spec.fault)
        plan.set(key, value);
    return plan;
}

TEST(Chaos, FaultFreeRunHasNoFaultOrHardeningActivity)
{
    const fault::FaultPlan empty;
    const auto r = chaosRunCase(kIat, empty, true, kScale, 1);

    EXPECT_GT(r.tx_mpps, 0.0);
    EXPECT_EQ(r.mask_drift_ways, 0u);
    EXPECT_EQ(r.hw_ddio_ways, r.intended_ddio_ways);
    EXPECT_EQ(r.degraded_enters, 0u);
    EXPECT_EQ(r.bad_samples, 0u);
    EXPECT_EQ(r.write_retries, 0u);
    EXPECT_EQ(r.write_failures, 0u);
    EXPECT_EQ(r.outliers_clamped, 0u);
    EXPECT_EQ(r.read_faults, 0u);
    EXPECT_EQ(r.write_rejects, 0u);
    EXPECT_EQ(r.polls_dropped, 0u);
    EXPECT_EQ(r.link_flaps, 0u);
    EXPECT_EQ(r.ring_stalls, 0u);
    EXPECT_EQ(r.churn_events, 0u);
}

TEST(Chaos, HardenedCampaignSurvivesWithBoundedLoss)
{
    const auto plan = shippedPlan();
    ASSERT_TRUE(plan.any());

    const fault::FaultPlan empty;
    const auto clean = chaosRunCase(kIat, empty, true, kScale, 1);
    const auto chaos = chaosRunCase(kIat, plan, true, kScale, 1);

    // The run completed (no crash) and actually saw faults.
    EXPECT_GT(chaos.tx_mpps, 0.0);
    EXPECT_GT(chaos.read_faults + chaos.write_rejects +
                  chaos.polls_dropped + chaos.link_flaps +
                  chaos.ring_stalls + chaos.churn_events,
              0u);

    // Bounded throughput loss. The acceptance gate proper (>= 0.90)
    // is chaos.exp's [expect] section, run through iatexp; at this
    // tiny scale the settle windows are short so we assert a looser
    // floor.
    EXPECT_GE(chaos.tx_mpps, 0.70 * clean.tx_mpps);

    // The hardened daemon never leaves intent and hardware apart.
    EXPECT_EQ(chaos.mask_drift_ways, 0u);
    EXPECT_EQ(chaos.write_failures, 0u);
}

TEST(Chaos, ReplayIsDeterministic)
{
    const auto plan = shippedPlan();

    const auto a = chaosRunCase(kIat, plan, true, kScale, 7);
    const auto b = chaosRunCase(kIat, plan, true, kScale, 7);

    EXPECT_EQ(a.tx_mpps, b.tx_mpps); // bitwise, not approximate
    EXPECT_EQ(a.hw_ddio_ways, b.hw_ddio_ways);
    EXPECT_EQ(a.intended_ddio_ways, b.intended_ddio_ways);
    EXPECT_EQ(a.mask_drift_ways, b.mask_drift_ways);
    EXPECT_EQ(a.hw_tenant_ways, b.hw_tenant_ways);
    EXPECT_EQ(a.degraded_enters, b.degraded_enters);
    EXPECT_EQ(a.degraded_exits, b.degraded_exits);
    EXPECT_EQ(a.missed_polls, b.missed_polls);
    EXPECT_EQ(a.bad_samples, b.bad_samples);
    EXPECT_EQ(a.write_retries, b.write_retries);
    EXPECT_EQ(a.write_failures, b.write_failures);
    EXPECT_EQ(a.outliers_clamped, b.outliers_clamped);
    EXPECT_EQ(a.read_faults, b.read_faults);
    EXPECT_EQ(a.write_rejects, b.write_rejects);
    EXPECT_EQ(a.polls_dropped, b.polls_dropped);
    EXPECT_EQ(a.link_flaps, b.link_flaps);
    EXPECT_EQ(a.ring_stalls, b.ring_stalls);
    EXPECT_EQ(a.churn_events, b.churn_events);

    // A different trial seed reseeds the fault schedule (chaos.exp
    // defers: fault seed 0 -> trial seed) and must diverge somewhere.
    const auto c = chaosRunCase(kIat, plan, true, kScale, 8);
    EXPECT_TRUE(a.tx_mpps != c.tx_mpps ||
                a.read_faults != c.read_faults ||
                a.write_rejects != c.write_rejects ||
                a.polls_dropped != c.polls_dropped);
}

TEST(Chaos, TrialReplayThroughTheRegistryIsByteIdentical)
{
    exp::TrialRegistry registry;
    registerPaperSweeps(registry);
    const auto *entry = registry.find("chaos");
    ASSERT_NE(entry, nullptr);

    const auto spec = exp::ExperimentSpec::loadFile(
        std::string(IATSIM_SOURCE_DIR) + "/experiments/chaos.exp");
    auto trials = spec.expand(kScale);
    ASSERT_FALSE(trials.empty());
    auto ctx = trials.front();

    const auto a = entry->fn(ctx);
    const auto b = entry->fn(ctx);
    ASSERT_FALSE(a.metrics.empty());
    EXPECT_EQ(a.metrics, b.metrics);
    // The per-trial plan digest is stamped and stable.
    EXPECT_EQ(ctx.fault_hash.size(), 16u);
}

TEST(Chaos, FaultsParamZeroRunsWithoutThePlan)
{
    exp::TrialRegistry registry;
    registerPaperSweeps(registry);
    const auto *entry = registry.find("chaos");
    ASSERT_NE(entry, nullptr);

    // chaos.exp's first trial: faults=1, hardening=1.
    const auto spec = exp::ExperimentSpec::loadFile(
        std::string(IATSIM_SOURCE_DIR) + "/experiments/chaos.exp");
    auto ctx = spec.expand(kScale).front();
    ASSERT_NE(ctx.find("faults"), nullptr);
    ASSERT_EQ(*ctx.find("faults"), "1");
    const auto metric = [](const exp::TrialResult &r,
                           const std::string &name) {
        for (const auto &[key, value] : r.metrics) {
            if (key == name)
                return value;
        }
        return -1.0;
    };
    EXPECT_GT(metric(entry->fn(ctx), "write_rejects"), 0.0);

    // The same trial with faults=0 keeps the plan's knobs in its
    // params but runs the fault-free ramp.
    for (auto &[key, value] : ctx.params) {
        if (key == "faults")
            value = "0";
    }
    const auto clean = entry->fn(ctx);
    EXPECT_EQ(metric(clean, "write_rejects"), 0.0);
    EXPECT_EQ(metric(clean, "read_faults"), 0.0);
    EXPECT_EQ(metric(clean, "churn_events"), 0.0);
    EXPECT_EQ(metric(clean, "tx_mpps"),
              chaosRunCase(kIat, fault::FaultPlan{}, true, kScale,
                           ctx.seed)
                  .tx_mpps);
}

TEST(Chaos, UnhardenedDaemonMisallocates)
{
    // Force the write-rejection pressure up so the drift signature is
    // reliable even in this test's tiny run window.
    auto plan = shippedPlan();
    plan.set("write_reject", "0.6");

    const auto soft = chaosRunCase(kIat, plan, false, kScale, 1);

    // Rejections happened and the unhardened daemon never retried:
    // its book-keeping and the hardware disagree at some checkpoint.
    EXPECT_GT(soft.write_rejects, 0u);
    EXPECT_EQ(soft.write_retries, 0u);
    EXPECT_GT(soft.write_failures, 0u);
    EXPECT_GT(soft.mask_drift_ways, 0u);
}

} // namespace
} // namespace iat::bench
