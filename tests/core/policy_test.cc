/**
 * @file
 * Unit tests for the policy registry: label round-trips, the
 * contract table, and the makePolicy factory.
 */

#include "core/policy.hh"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sim/platform.hh"

namespace iat::core {
namespace {

using cache::WayMask;

sim::PlatformConfig
testConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    cfg.llc.num_slices = 4;
    cfg.llc.sets_per_slice = 256;
    return cfg;
}

class PolicyTest : public testing::Test
{
  protected:
    PolicyTest() : platform(testConfig()) {}

    void
    addTenant(const std::string &name, cache::CoreId core,
              unsigned ways,
              TenantPriority priority =
                  TenantPriority::PerformanceCritical,
              bool is_io = false)
    {
        TenantSpec spec;
        spec.name = name;
        spec.cores = {core};
        spec.initial_ways = ways;
        spec.priority = priority;
        spec.is_io = is_io;
        registry.add(spec);
    }

    sim::Platform platform;
    TenantRegistry registry;
};

TEST(PolicyKindTest, ToStringParseRoundTrip)
{
    for (const auto kind : allPolicyKinds()) {
        PolicyKind parsed = PolicyKind::Static;
        ASSERT_TRUE(parsePolicyKind(toString(kind), parsed))
            << toString(kind);
        EXPECT_EQ(parsed, kind) << toString(kind);
    }
}

TEST(PolicyKindTest, ParseAcceptsAliases)
{
    const struct
    {
        const char *name;
        PolicyKind expect;
    } cases[] = {
        {"static", PolicyKind::Static},
        {"baseline", PolicyKind::Static},
        {"iat", PolicyKind::Iat},
        {"IAT", PolicyKind::Iat},
        {"iat-noddio", PolicyKind::IatNoDdio},
        {"IOCA", PolicyKind::Ioca},
        {"LFOC", PolicyKind::Lfoc},
    };
    for (const auto &c : cases) {
        PolicyKind parsed = PolicyKind::Iat;
        ASSERT_TRUE(parsePolicyKind(c.name, parsed)) << c.name;
        EXPECT_EQ(parsed, c.expect) << c.name;
    }
    PolicyKind parsed = PolicyKind::Iat;
    EXPECT_FALSE(parsePolicyKind("no-such-policy", parsed));
    EXPECT_FALSE(parsePolicyKind("", parsed));
}

TEST(PolicyKindTest, AllKindsAreUniqueAndUniquelyLabelled)
{
    const auto &kinds = allPolicyKinds();
    EXPECT_EQ(kinds.size(), 7u);
    std::set<std::string> labels;
    for (const auto kind : kinds)
        labels.insert(toString(kind));
    EXPECT_EQ(labels.size(), kinds.size());
    EXPECT_EQ(policyKindLabels(),
              "baseline|core-only|io-iso|IAT|IAT-noddio|ioca|lfoc");
}

TEST(PolicyKindTest, ContractTable)
{
    // Everyone promises valid CBMs.
    for (const auto kind : allPolicyKinds())
        EXPECT_TRUE(policyContract(kind).contiguous_masks);

    const auto iat = policyContract(PolicyKind::Iat);
    EXPECT_TRUE(iat.tenant_disjoint);
    EXPECT_TRUE(iat.ddio_bounded);
    EXPECT_TRUE(iat.shuffle_invariants);

    // The ablation keeps the shuffle lattice but gives up the DDIO
    // band promise along with the register writes.
    const auto noddio = policyContract(PolicyKind::IatNoDdio);
    EXPECT_TRUE(noddio.shuffle_invariants);
    EXPECT_FALSE(noddio.ddio_bounded);

    const auto ioca = policyContract(PolicyKind::Ioca);
    EXPECT_TRUE(ioca.tenant_disjoint);
    EXPECT_TRUE(ioca.ddio_bounded);
    EXPECT_FALSE(ioca.shuffle_invariants)
        << "IOCA orders I/O tenants on top; the BE-last shuffle "
           "rules do not apply";

    const auto lfoc = policyContract(PolicyKind::Lfoc);
    EXPECT_FALSE(lfoc.tenant_disjoint);
    EXPECT_TRUE(lfoc.cluster_disjoint);
    EXPECT_TRUE(lfoc.ddio_disjoint);

    // Core-only cannot see DDIO, so it cannot promise to avoid it.
    const auto coreonly = policyContract(PolicyKind::CoreOnly);
    EXPECT_TRUE(coreonly.tenant_disjoint);
    EXPECT_FALSE(coreonly.ddio_disjoint);

    // I/O-iso is the inverse trade: DDIO-clean, but tenants overlap
    // when squeezed.
    const auto ioiso = policyContract(PolicyKind::IoIso);
    EXPECT_TRUE(ioiso.ddio_disjoint);
    EXPECT_FALSE(ioiso.tenant_disjoint);
}

TEST_F(PolicyTest, FactoryBuildsEveryKind)
{
    addTenant("io", 0, 3, TenantPriority::PerformanceCritical, true);
    addTenant("cpu", 1, 2);
    for (const auto kind : allPolicyKinds()) {
        registry.markDirty();
        auto policy = makePolicy(kind, platform.pqos(), registry,
                                 IatParams{});
        ASSERT_NE(policy, nullptr) << toString(kind);
        EXPECT_EQ(policy->kind(), kind);
        EXPECT_STREQ(policy->name(), toString(kind));
        policy->tick(0.0);
        policy->tick(1.0);
        const bool is_daemon = kind == PolicyKind::Iat ||
                               kind == PolicyKind::IatNoDdio;
        EXPECT_EQ(policy->daemon() != nullptr, is_daemon)
            << toString(kind)
            << ": daemon() must expose the IatDaemon for the IAT "
               "kinds only";
        // check::policyViolation() reads the daemon's allocator
        // intent exactly when the contract promises the shuffle
        // invariants.
        EXPECT_EQ(policy->contract().shuffle_invariants, is_daemon)
            << toString(kind);
    }
}

TEST_F(PolicyTest, StaticPolicyProgramsLayoutAtConstruction)
{
    addTenant("a", 0, 3);
    addTenant("b", 1, 2, TenantPriority::BestEffort);
    auto policy = makePolicy(PolicyKind::Static, platform.pqos(),
                             registry, IatParams{});
    // No tick yet: the layout is programmed at construction.
    const auto a = platform.llc().closMask(1);
    const auto b = platform.llc().closMask(2);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_FALSE(a.overlaps(b));

    // Registry churn re-applies the layout to cover the newcomer.
    addTenant("c", 2, 2);
    policy->tick(0.0);
    const auto c = platform.llc().closMask(3);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_FALSE(c.overlaps(platform.llc().closMask(1)));
    EXPECT_FALSE(c.overlaps(platform.llc().closMask(2)));
}

TEST_F(PolicyTest, StaticPolicyNeverMovesDdio)
{
    addTenant("a", 0, 3);
    const auto before = platform.llc().ddioMask();
    auto policy = makePolicy(PolicyKind::Static, platform.pqos(),
                             registry, IatParams{});
    for (int i = 0; i < 5; ++i)
        policy->tick(i);
    EXPECT_EQ(platform.llc().ddioMask(), before);
}

} // namespace
} // namespace iat::core
