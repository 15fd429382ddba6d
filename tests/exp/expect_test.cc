/**
 * @file
 * Tests for checking `[expect]` lines against campaign records: each
 * operator, the constant factor, a left side over several records,
 * the numbers a failed line prints, and the ways a line fails
 * without a false comparison (missing metric, a right side selecting
 * 0 or 2 records, an empty left side).
 */

#include "exp/results.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace iat::exp {
namespace {

/**
 * Four A/B records, written and read back through the JSONL format:
 * faults x hardening, with tx and drift metrics; trial 3 has no drift.
 */
std::vector<RecordInfo>
abRecords()
{
    const double tx[] = {4.6, 4.69, 4.97, 4.97};
    const double drift[] = {0, 2, 0};
    std::string jsonl;
    for (std::size_t i = 0; i < 4; ++i) {
        TrialContext ctx;
        ctx.sweep = "chaos";
        ctx.index = i;
        ctx.params = {{"faults", i < 2 ? "1" : "0"},
                      {"hardening", i % 2 == 0 ? "1" : "0"}};
        TrialOutcome outcome;
        outcome.result.add("tx_mpps", tx[i]);
        if (i < 3)
            outcome.result.add("drift", drift[i]);
        outcome.result.add("nan_metric", std::nan(""));
        jsonl += serializeRecord("h", ctx, outcome) + "\n";
    }
    return readRecords(jsonl);
}

ExpectVerdict
verdict(const std::string &line)
{
    const auto verdicts =
        checkExpectations({Expectation::parse(line)}, abRecords());
    EXPECT_EQ(verdicts.size(), 1u);
    return verdicts.front();
}

TEST(Expect, RecordsReadBackParamsAndMetrics)
{
    const auto records = abRecords();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[1].params,
              (std::vector<std::pair<std::string, std::string>>{
                  {"faults", "1"}, {"hardening", "0"}}));
    // The null (non-finite) metric is left out.
    ASSERT_EQ(records[1].metrics.size(), 2u);
    EXPECT_EQ(records[1].metrics[0].first, "tx_mpps");
    EXPECT_EQ(records[1].metrics[0].second, 4.69);
    EXPECT_EQ(records[1].metrics[1].first, "drift");
}

TEST(Expect, EachOperator)
{
    const char *const sel = "tx_mpps[faults=1,hardening=1] ";
    const struct
    {
        const char *op;
        bool below, equal, above; // vs 4.5, 4.6, 4.7
    } ops[] = {
        {"==", false, true, false}, {"<", false, false, true},
        {"<=", false, true, true},  {">", true, false, false},
        {">=", true, true, false},
    };
    for (const auto &o : ops) {
        SCOPED_TRACE(o.op);
        const std::string lhs = std::string(sel) + o.op + " ";
        EXPECT_EQ(verdict(lhs + "4.5").pass, o.below);
        EXPECT_EQ(verdict(lhs + "4.6").pass, o.equal);
        EXPECT_EQ(verdict(lhs + "4.7").pass, o.above);
        // A metric right side compares the same way.
        EXPECT_EQ(verdict(lhs + "tx_mpps[faults=1,hardening=0]").pass,
                  o.above);
    }
}

TEST(Expect, ConstantFactorScalesTheRightSide)
{
    // 4.6 vs 4.97: a 0.9 factor passes (4.473), 0.95 fails (4.7215).
    EXPECT_TRUE(verdict("tx_mpps[faults=1,hardening=1] >= 0.9 * "
                        "tx_mpps[faults=0,hardening=1]")
                    .pass);
    const auto v = verdict("tx_mpps[faults=1,hardening=1] >= 0.95 * "
                           "tx_mpps[faults=0,hardening=1]");
    EXPECT_FALSE(v.pass);
    EXPECT_EQ(v.detail, "trial 0: 4.6 vs 4.7215");
    EXPECT_TRUE(verdict("tx_mpps[faults=0] == 0.5 * 9.94").pass);
}

TEST(Expect, LeftSideMustHoldOnEverySelectedRecord)
{
    const auto all = verdict("tx_mpps > 4.5");
    EXPECT_TRUE(all.pass);
    EXPECT_EQ(all.detail, "4 records vs 4.5");
    EXPECT_TRUE(verdict("tx_mpps[faults=0] == 4.97").pass);
    // One of the two faulted records (trial 0, 4.6) breaks it.
    const auto v = verdict("tx_mpps[faults=1] > 4.65");
    EXPECT_FALSE(v.pass);
    EXPECT_EQ(v.detail, "trial 0: 4.6 vs 4.65");
}

TEST(Expect, FailedEqualityShowsTwoDifferentNumbers)
{
    // Values that agree to 16 digits still print apart: verdicts use
    // the shortest round-trip form, not a fixed precision.
    const auto v = verdict("tx_mpps[faults=1,hardening=1] == "
                           "4.6000000000000005");
    EXPECT_FALSE(v.pass);
    EXPECT_EQ(v.detail, "trial 0: 4.6 vs 4.6000000000000005");
}

TEST(Expect, MissingMetricFails)
{
    const auto lhs = verdict("drift <= 2");
    EXPECT_FALSE(lhs.pass);
    EXPECT_EQ(lhs.detail, "trial 3 has no metric 'drift'");
    const auto rhs = verdict("tx_mpps > drift[faults=0,hardening=0]");
    EXPECT_FALSE(rhs.pass);
    EXPECT_EQ(rhs.detail, "trial 3 has no metric 'drift'");
    // A null (non-finite) metric counts as missing.
    const auto null = verdict("nan_metric >= 0");
    EXPECT_FALSE(null.pass);
    EXPECT_EQ(null.detail, "trial 0 has no metric 'nan_metric'");
}

TEST(Expect, RightSideMustSelectExactlyOneRecord)
{
    const auto none = verdict("tx_mpps > tx_mpps[faults=2]");
    EXPECT_FALSE(none.pass);
    EXPECT_EQ(none.detail, "right side selects 0 records, needs exactly 1");
    const auto two = verdict("tx_mpps > 0.5 * tx_mpps[faults=0]");
    EXPECT_FALSE(two.pass);
    EXPECT_EQ(two.detail, "right side selects 2 records, needs exactly 1");
}

TEST(Expect, EmptyLeftSideFails)
{
    // A gate that selects nothing checks nothing: a typo'd selector
    // value fails instead of passing vacuously.
    const auto v = verdict("tx_mpps[faults=yes] > 0");
    EXPECT_FALSE(v.pass);
    EXPECT_EQ(v.detail, "left side selects no records");
}

TEST(Expect, VerdictsFollowTheSpecOrder)
{
    const auto spec = ExperimentSpec::parse(
        "sweep = chaos\n[expect]\n"
        "drift[faults=1,hardening=0] > 0\n"
        "drift[faults=1,hardening=1] > 0\n");
    const auto verdicts = checkExpectations(spec.expect, abRecords());
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_TRUE(verdicts[0].pass);
    EXPECT_EQ(verdicts[0].text, "drift[faults=1,hardening=0] > 0");
    EXPECT_EQ(verdicts[0].detail, "2 vs 0");
    EXPECT_FALSE(verdicts[1].pass);
    EXPECT_EQ(verdicts[1].detail, "trial 0: 0 vs 0");
}

} // namespace
} // namespace iat::exp
