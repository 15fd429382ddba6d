/**
 * @file
 * The bakeoff's policy property suite: every registered PolicyKind
 * driven through 500 fuzzed monitor-input sequences of the world
 * fuzzer (check::fuzzWorldTrial() under an empty FaultPlan, so every
 * contract check is strict and the cache oracle shadows the
 * traffic), with each policy's declared contract
 * (check/policy_check.hh) verified after every tick. A failure
 * message carries the kind, seed and first violated invariant.
 */

#include "check/fuzz.hh"

#include <gtest/gtest.h>

namespace iat {
namespace {

/** No faults: the contracts are checked strictly. */
const fault::FaultPlan kCleanPlan{};

/** Seeds per kind; the ISSUE's campaign floor. */
constexpr std::uint64_t kSequences = 500;
/** Intervals per sequence: short, so 7 x 500 trials stay cheap. */
constexpr std::uint64_t kIterations = 20;

class PolicyPropertyTest
    : public testing::TestWithParam<core::PolicyKind>
{
};

TEST_P(PolicyPropertyTest, ContractHoldsUnderFuzzedMonitorInputs)
{
    const auto kind = GetParam();
    for (std::uint64_t seed = 1; seed <= kSequences; ++seed) {
        const auto violation = check::fuzzWorldTrial(
            seed, kIterations, &kCleanPlan, kind);
        ASSERT_TRUE(violation.empty())
            << core::toString(kind) << " seed " << seed << ": "
            << violation;
    }
}

/** A longer soak on fewer seeds, so slow-building violations (e.g.
 *  drifting DDIO bounds, layout churn) get room to manifest. */
TEST_P(PolicyPropertyTest, ContractHoldsOverLongSequences)
{
    const auto kind = GetParam();
    for (std::uint64_t seed = 1000; seed < 1010; ++seed) {
        const auto violation =
            check::fuzzWorldTrial(seed, 400, &kCleanPlan, kind);
        ASSERT_TRUE(violation.empty())
            << core::toString(kind) << " seed " << seed << ": "
            << violation;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PolicyPropertyTest,
    testing::ValuesIn(core::allPolicyKinds()),
    [](const testing::TestParamInfo<core::PolicyKind> &info) {
        std::string name = core::toString(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace iat
