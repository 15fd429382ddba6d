/**
 * @file
 * Tests that the contract-driven policy checker actually catches
 * sabotaged hardware state -- a checker that never fires proves
 * nothing about the policies it blesses.
 */

#include "check/policy_check.hh"

#include <gtest/gtest.h>

#include "core/daemon.hh"
#include "sim/platform.hh"

namespace iat {
namespace {

using cache::WayMask;
using core::PolicyKind;

sim::PlatformConfig
testConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    cfg.llc.num_slices = 4;
    cfg.llc.sets_per_slice = 256;
    return cfg;
}

class PolicyCheckTest : public testing::Test
{
  protected:
    PolicyCheckTest() : platform(testConfig()) {}

    void
    addTenant(const std::string &name, cache::CoreId core,
              unsigned ways, bool is_io = false)
    {
        core::TenantSpec spec;
        spec.name = name;
        spec.cores = {core};
        spec.initial_ways = ways;
        spec.is_io = is_io;
        registry.add(spec);
    }

    /** Build @p kind over a 2-tenant world and run a settling tick. */
    std::unique_ptr<core::Policy>
    makeTicked(PolicyKind kind)
    {
        addTenant("io", 0, 3, true);
        addTenant("cpu", 1, 2);
        auto policy = core::makePolicy(kind, platform.pqos(),
                                       registry, params);
        policy->tick(0.0);
        return policy;
    }

    sim::Platform platform;
    core::TenantRegistry registry;
    core::IatParams params;
};

TEST_F(PolicyCheckTest, CleanPoliciesPass)
{
    for (const auto kind : core::allPolicyKinds()) {
        sim::Platform fresh(testConfig());
        core::TenantRegistry reg;
        core::TenantSpec io;
        io.name = "io";
        io.cores = {0};
        io.initial_ways = 3;
        io.is_io = true;
        reg.add(io);
        core::TenantSpec cpu;
        cpu.name = "cpu";
        cpu.cores = {1};
        cpu.initial_ways = 2;
        reg.add(cpu);
        auto policy =
            core::makePolicy(kind, fresh.pqos(), reg, params);
        policy->tick(0.0);
        policy->tick(1.0);
        EXPECT_EQ(check::policyViolation(*policy, fresh.pqos(), reg,
                                         params),
                  "")
            << core::toString(kind);
    }
}

TEST_F(PolicyCheckTest, CatchesTenantOverlapUnderDisjointContract)
{
    auto policy = makeTicked(PolicyKind::Static);
    // Sabotage: reprogram tenant 1 onto tenant 0's ways behind the
    // policy's back.
    const auto stolen = platform.llc().closMask(1);
    ASSERT_TRUE(platform.pqos().l3caSet(2, stolen));
    const auto v = check::policyViolation(*policy, platform.pqos(),
                                          registry, params);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v.find("overlap"), std::string::npos) << v;
}

TEST_F(PolicyCheckTest, ClusterContractAllowsSharedButNotPartial)
{
    auto policy = makeTicked(PolicyKind::Lfoc);

    // Bit-identical masks are cluster-mates: legal.
    ASSERT_TRUE(
        platform.pqos().l3caSet(1, WayMask::fromRange(0, 4)));
    ASSERT_TRUE(
        platform.pqos().l3caSet(2, WayMask::fromRange(0, 4)));
    EXPECT_EQ(check::policyViolation(*policy, platform.pqos(),
                                     registry, params),
              "");

    // A partial overlap is never a cluster.
    ASSERT_TRUE(
        platform.pqos().l3caSet(2, WayMask::fromRange(2, 4)));
    const auto v = check::policyViolation(*policy, platform.pqos(),
                                          registry, params);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v.find("partially overlap"), std::string::npos) << v;
}

TEST_F(PolicyCheckTest, CatchesDdioIntrusionUnderDdioDisjoint)
{
    auto policy = makeTicked(PolicyKind::IoIso);
    // Shove tenant 0 up into the DDIO region.
    const auto ddio = platform.pqos().ddioGetWays();
    ASSERT_TRUE(platform.pqos().l3caSet(
        1, WayMask::fromRange(ddio.lowest(), 2)));
    const auto v = check::policyViolation(*policy, platform.pqos(),
                                          registry, params);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v.find("DDIO"), std::string::npos) << v;
}

TEST_F(PolicyCheckTest, NonStrictToleratesStaleOverlaps)
{
    auto policy = makeTicked(PolicyKind::Static);
    const auto stolen = platform.llc().closMask(1);
    ASSERT_TRUE(platform.pqos().l3caSet(2, stolen));
    // With write rejection in play a stale overlapping mask is a
    // legitimate transient: only validity is enforced.
    EXPECT_EQ(check::policyViolation(*policy, platform.pqos(),
                                     registry, params,
                                     /*strict=*/false),
              "");
    // But it is still a violation once the faults stop.
    EXPECT_NE(check::policyViolation(*policy, platform.pqos(),
                                     registry, params,
                                     /*strict=*/true),
              "");
}

TEST_F(PolicyCheckTest, DaemonKindsCheckTheAllocatorIntent)
{
    auto policy = makeTicked(PolicyKind::Iat);
    ASSERT_NE(policy->daemon(), nullptr);
    EXPECT_EQ(check::policyViolation(*policy, platform.pqos(),
                                     registry, params),
              "");

    // The daemon path checks intent, not hardware: a sabotaged CLOS
    // register is the fuzzer's MSR-fault territory, so the intent
    // check stays green -- exactly the strictness split the world
    // fuzzer relies on.
    const auto stolen = platform.llc().closMask(1);
    ASSERT_TRUE(platform.pqos().l3caSet(2, stolen));
    EXPECT_EQ(check::policyViolation(*policy, platform.pqos(),
                                     registry, params),
              "");
}

TEST_F(PolicyCheckTest, DaemonDdioBandIsEnforced)
{
    auto policy = makeTicked(PolicyKind::Iat);
    // Narrow the allowed band until the daemon's current DDIO ways
    // fall outside it: the checker must flag the excursion.
    core::IatParams narrow = params;
    const unsigned dw = policy->daemon()->ddioWays();
    narrow.ddio_ways_min = dw + 1;
    narrow.ddio_ways_max = dw + 2;
    const auto v = check::policyViolation(*policy, platform.pqos(),
                                          registry, narrow);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v.find("DDIO ways"), std::string::npos) << v;
}

} // namespace
} // namespace iat
