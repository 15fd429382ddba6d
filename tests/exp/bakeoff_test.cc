/**
 * @file
 * The bakeoff campaign's evaluation scaffolding: the shipped specs
 * cover every registered policy, the sweep body emits the fairness
 * axis, and -- the CI gate -- identical inputs produce bit-identical
 * results, fault-free and faulted alike.
 */

#include "bench/sweeps.hh"

#include <string>

#include <gtest/gtest.h>

#include "core/policy.hh"
#include "exp/spec.hh"
#include "fault/plan.hh"

namespace iat::bench {
namespace {

/** Small enough to keep the test quick, large enough for nonzero
 *  windows in every scenario. */
constexpr double kScale = 0.25;

exp::TrialRegistry
bakeoffRegistry()
{
    exp::TrialRegistry registry;
    registerBakeoffSweeps(registry);
    return registry;
}

TEST(Bakeoff, ShippedSpecsCoverEveryPolicy)
{
    const auto registry = bakeoffRegistry();
    for (const char *file : {"bakeoff.exp", "bakeoff_smoke.exp"}) {
        const auto spec = exp::ExperimentSpec::loadFile(
            std::string(IATSIM_SOURCE_DIR) + "/experiments/" + file);
        EXPECT_EQ(spec.sweep, "bakeoff") << file;
        ASSERT_NE(registry.find(spec.sweep), nullptr) << file;

        const exp::AxisSpec *policy_axis = nullptr;
        for (const auto &axis : spec.axes) {
            if (axis.name == "policy")
                policy_axis = &axis;
        }
        ASSERT_NE(policy_axis, nullptr) << file;
        // Every axis value must parse, and the full bakeoff must
        // cross every shipped table policy.
        for (const auto &value : policy_axis->values) {
            core::PolicyKind kind;
            EXPECT_TRUE(core::parsePolicyKind(value, kind))
                << file << ": " << value;
        }
        EXPECT_EQ(policy_axis->values.size(), 6u) << file;
    }

    // The full campaign also carries the fault axis + plan.
    const auto full = exp::ExperimentSpec::loadFile(
        std::string(IATSIM_SOURCE_DIR) + "/experiments/bakeoff.exp");
    EXPECT_FALSE(full.fault.empty());
    EXPECT_EQ(full.trialCount(), 36u)
        << "3 scenarios x 6 policies x {fault-free, faulted}";
}

TEST(Bakeoff, RunCaseIsDeterministicFaultFree)
{
    const auto a = bakeoffRunCase(core::PolicyKind::Lfoc, "agg",
                                  fault::FaultPlan{}, kScale, 11);
    const auto b = bakeoffRunCase(core::PolicyKind::Lfoc, "agg",
                                  fault::FaultPlan{}, kScale, 11);
    EXPECT_EQ(a.tput_mps, b.tput_mps);
    EXPECT_EQ(a.p99_us, b.p99_us);
    EXPECT_EQ(a.jain, b.jain);
    EXPECT_EQ(a.worst_slowdown, b.worst_slowdown);
    EXPECT_EQ(a.slowdown, b.slowdown);
    EXPECT_EQ(a.solo_ipc, b.solo_ipc);
    EXPECT_EQ(a.run_ipc, b.run_ipc);
    EXPECT_EQ(a.hw_ddio_ways, b.hw_ddio_ways);
    EXPECT_EQ(a.read_faults, 0u);
    EXPECT_EQ(a.write_rejects, 0u);
}

TEST(Bakeoff, RunCaseIsDeterministicUnderFaults)
{
    fault::FaultPlan plan;
    plan.start_seconds = 0.001;
    plan.read_noise = 0.2;
    plan.read_noise_mag = 16;
    plan.write_reject = 0.15;
    plan.poll_drop = 0.1;
    const auto a = bakeoffRunCase(core::PolicyKind::Ioca, "agg", plan,
                                  kScale, 11);
    const auto b = bakeoffRunCase(core::PolicyKind::Ioca, "agg", plan,
                                  kScale, 11);
    EXPECT_EQ(a.tput_mps, b.tput_mps);
    EXPECT_EQ(a.p99_us, b.p99_us);
    EXPECT_EQ(a.jain, b.jain);
    EXPECT_EQ(a.slowdown, b.slowdown);
    EXPECT_EQ(a.read_faults, b.read_faults);
    EXPECT_EQ(a.write_rejects, b.write_rejects);
    EXPECT_EQ(a.polls_dropped, b.polls_dropped);
    EXPECT_GT(a.read_faults + a.write_rejects + a.polls_dropped, 0u)
        << "the plan must actually fire for this to gate anything";
}

TEST(Bakeoff, FaultedStaticRunDrawsNoPollsAndWritesNoMsr)
{
    // The faulted baseline rows of bakeoff.exp stay byte-identical
    // only because Static installs no tick hook (fault::attachPolicy):
    // a hook would draw poll-drop coins from the injector's shared Rng
    // and re-apply the layout on churn through the faulty MSR bus.
    const auto spec = exp::ExperimentSpec::loadFile(
        std::string(IATSIM_SOURCE_DIR) + "/experiments/bakeoff.exp");
    fault::FaultPlan plan;
    for (const auto &[key, value] : spec.fault)
        plan.set(key, value);
    // Every hooked poll drops and churn lands inside the short
    // window, so a hook could not go unnoticed at this scale.
    plan.poll_drop = 1.0;
    plan.churn_period_seconds = 0.005;

    const auto r = bakeoffRunCase(core::PolicyKind::Static, "agg", plan,
                                  kScale, 11);
    EXPECT_EQ(r.polls_dropped, 0u);
    EXPECT_EQ(r.write_rejects, 0u);
}

TEST(Bakeoff, TrialEmitsTheFairnessAxis)
{
    const auto registry = bakeoffRegistry();
    const auto *fn = registry.find("bakeoff");
    ASSERT_NE(fn, nullptr);

    exp::TrialContext ctx;
    ctx.sweep = "bakeoff";
    ctx.seed = 5;
    ctx.scale = kScale;
    ctx.params = {{"scenario", "slicing"}, {"policy", "IAT"}};
    const auto result = fn->fn(ctx);

    const auto metric = [&](const std::string &name) -> const double * {
        for (const auto &[key, value] : result.metrics) {
            if (key == name)
                return &value;
        }
        return nullptr;
    };
    for (const char *name :
         {"tput_mps", "p99_us", "jain", "worst_slowdown",
          "hw_ddio_ways", "slowdown_0"})
        EXPECT_NE(metric(name), nullptr) << name;

    const double *jain = metric("jain");
    ASSERT_NE(jain, nullptr);
    EXPECT_GT(*jain, 0.0);
    EXPECT_LE(*jain, 1.0 + 1e-12) << "Jain's index lives in (0, 1]";
    const double *worst = metric("worst_slowdown");
    ASSERT_NE(worst, nullptr);
    EXPECT_GT(*worst, 0.0);
}

TEST(Bakeoff, UnknownScenarioAndPolicyFailLoudly)
{
    const auto registry = bakeoffRegistry();
    const auto *fn = registry.find("bakeoff");
    ASSERT_NE(fn, nullptr);

    exp::TrialContext bad_scenario;
    bad_scenario.sweep = "bakeoff";
    bad_scenario.params = {{"scenario", "nope"}, {"policy", "IAT"}};
    EXPECT_THROW(fn->fn(bad_scenario), std::exception);

    exp::TrialContext bad_policy;
    bad_policy.sweep = "bakeoff";
    bad_policy.params = {{"scenario", "agg"}, {"policy", "nope"}};
    EXPECT_THROW(fn->fn(bad_policy), std::exception);
}

} // namespace
} // namespace iat::bench
