/**
 * @file
 * Unit tests for the baseline policies: Core-only's I/O blindness,
 * I/O-iso's exclusion rule, and ResQ ring sizing.
 */

#include "core/baselines.hh"

#include <gtest/gtest.h>

#include "rdt/msr.hh"
#include "sim/platform.hh"

namespace iat::core {
namespace {

using cache::AccessType;
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

class BaselinesTest : public testing::Test
{
  protected:
    BaselinesTest() : platform(testConfig()) {}

    void
    addTenant(const std::string &name, cache::CoreId core,
              unsigned ways, TenantPriority priority)
    {
        TenantSpec spec;
        spec.name = name;
        spec.cores = {core};
        spec.initial_ways = ways;
        spec.priority = priority;
        registry.add(spec);
    }

    void
    coreTraffic(cache::CoreId core, std::uint64_t lines,
                std::uint64_t base)
    {
        for (std::uint64_t i = 0; i < lines; ++i) {
            platform.llc().coreAccess(core, base + i * 64,
                                      AccessType::Read);
        }
    }

    sim::Platform platform;
    TenantRegistry registry;
};

TEST_F(BaselinesTest, StaticPolicyDoesNothing)
{
    // The Core-only growth scenario below, under the static baseline:
    // the working-set explosion that makes a dynamic policy grow the
    // tenant must leave every mask as construction programmed it.
    addTenant("filler", 1, 7, TenantPriority::PerformanceCritical);
    addTenant("xmem", 0, 2, TenantPriority::PerformanceCritical);
    StaticPolicy policy(platform.pqos(), registry);
    const auto filler = platform.llc().closMask(1);
    const auto xmem = platform.llc().closMask(2);
    const auto ddio = platform.llc().ddioMask();
    EXPECT_EQ(ddio.count(), 2u);

    for (int i = 0; i < 4; ++i) {
        coreTraffic(0, 60000, 2ull << 30);
        platform.retire(0, 400'000);
        platform.advanceQuantum(0.01);
        policy.tick(i);
    }
    EXPECT_EQ(platform.llc().closMask(1), filler);
    EXPECT_EQ(platform.llc().closMask(2), xmem);
    EXPECT_EQ(platform.llc().ddioMask(), ddio);
}

TEST_F(BaselinesTest, CoreOnlySetupProgramsInitialMasks)
{
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 2, TenantPriority::BestEffort);
    CoreOnlyPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    EXPECT_EQ(platform.llc().closMask(1), WayMask::fromRange(0, 3));
    EXPECT_EQ(platform.llc().closMask(2), WayMask::fromRange(3, 2));
}

TEST_F(BaselinesTest, CoreOnlyGrowsIntoDdioWaysBlindly)
{
    // A filler tenant pins ways 0-6, so the X-Mem tenant sits at
    // ways 7-8 with only the "idle" ways 9-10 -- which are DDIO's --
    // left to grow into. An I/O-aware policy would know better; the
    // Core-only policy walks right in (the Latent Contender trap).
    addTenant("filler", 1, 7, TenantPriority::PerformanceCritical);
    addTenant("xmem", 0, 2, TenantPriority::PerformanceCritical);
    CoreOnlyPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);

    // Two warm intervals to settle, then a working-set explosion.
    for (int i = 1; i <= 2; ++i) {
        coreTraffic(0, 1500, 1ull << 30);
        coreTraffic(0, 1500, 1ull << 30);
        platform.retire(0, 4'000'000);
        platform.advanceQuantum(0.01);
        policy.tick(i);
    }
    coreTraffic(0, 60000, 2ull << 30);
    platform.retire(0, 400'000);
    platform.advanceQuantum(0.01);
    policy.tick(3);

    const auto mask = policy.allocator().tenantMask(1);
    EXPECT_EQ(mask.count(), 3u) << "policy never grew the tenant";
    EXPECT_TRUE(mask.overlaps(platform.llc().ddioMask()))
        << "core-only growth must land on DDIO's ways";
}

TEST_F(BaselinesTest, IoIsoNeverOverlapsDdio)
{
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 3, TenantPriority::BestEffort);
    addTenant("c", 2, 3, TenantPriority::BestEffort);
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_FALSE(policy.tenantMask(t).overlaps(
            platform.llc().ddioMask()))
            << "tenant " << t;
    }
}

TEST_F(BaselinesTest, IoIsoSqueezesWhenDdioGrows)
{
    addTenant("pc", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("be1", 1, 3, TenantPriority::BestEffort);
    addTenant("be2", 2, 3, TenantPriority::BestEffort);
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);

    // Fig 10's manual flip: DDIO takes 4 ways; only 7 remain usable.
    platform.pqos().ddioSetWays(WayMask::fromRange(7, 4));
    policy.tick(1.0);
    const auto ddio = platform.llc().ddioMask();
    unsigned be_ways = 0;
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_FALSE(policy.tenantMask(t).overlaps(ddio))
            << "tenant " << t;
        if (t > 0)
            be_ways += policy.tenantMask(t).count();
    }
    // BE tenants were squeezed to make the disjoint layout fit.
    EXPECT_LT(be_ways, 6u);
}

TEST_F(BaselinesTest, IoIsoSqueezesLateOrderedTenantsNext)
{
    // Four tenants of 3/3/3/2 ways cannot fit 11-4=7 usable ways;
    // after BEs hit one way, the late-ordered PC tenant pays too
    // (the paper's "container 4 can have 1~3 ways" case).
    addTenant("pc0", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("be", 1, 3, TenantPriority::BestEffort);
    addTenant("pc1", 2, 3, TenantPriority::PerformanceCritical);
    addTenant("pc2", 3, 2, TenantPriority::PerformanceCritical);
    platform.pqos().ddioSetWays(WayMask::fromRange(7, 4));
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);

    unsigned total = 0;
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_FALSE(policy.tenantMask(t).overlaps(
            platform.llc().ddioMask()));
        total += policy.tenantMask(t).count();
    }
    EXPECT_LE(total, 7u);
    EXPECT_EQ(policy.tenantMask(1).count(), 1u) << "BE pays first";
    // The last-ordered PC tenants lost capacity as well.
    EXPECT_LT(policy.tenantMask(3).count() +
                  policy.tenantMask(2).count(), 5u);
}

TEST_F(BaselinesTest, IoIsoOverlapsTenantsWhenOutOfRoom)
{
    // Eight single-way tenants cannot fit 11-4=7 usable ways even
    // at one way each: the overlap fallback must kick in while the
    // DDIO exclusion still holds.
    for (int t = 0; t < 8; ++t) {
        addTenant("t" + std::to_string(t),
                  static_cast<cache::CoreId>(t % 8), 1,
                  t < 4 ? TenantPriority::PerformanceCritical
                        : TenantPriority::BestEffort);
    }
    platform.pqos().ddioSetWays(WayMask::fromRange(7, 4));
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);

    bool any_overlap_between_tenants = false;
    for (std::size_t a = 0; a < 8; ++a) {
        EXPECT_FALSE(policy.tenantMask(a).overlaps(
            platform.llc().ddioMask()));
        for (std::size_t b = a + 1; b < 8; ++b) {
            any_overlap_between_tenants =
                any_overlap_between_tenants ||
                policy.tenantMask(a).overlaps(policy.tenantMask(b));
        }
    }
    EXPECT_TRUE(any_overlap_between_tenants);
}

TEST_F(BaselinesTest, IoIsoOrderChangesPlacement)
{
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 3, TenantPriority::PerformanceCritical);
    IoIsolationPolicy first(platform.pqos(), registry, IatParams{},
                            {0, 1});
    first.tick(0.0);
    const auto mask_a_first = first.tenantMask(0);

    IoIsolationPolicy second(platform.pqos(), registry, IatParams{},
                             {1, 0});
    registry.markDirty();
    second.tick(0.0);
    EXPECT_NE(second.tenantMask(0), mask_a_first);
}

TEST_F(BaselinesTest, CoreOnlySingleTenantWorld)
{
    // Degenerate world: one tenant, nobody to trade ways with. The
    // ordered-segment machinery must still produce a valid
    // bottom-packed mask and keep ticking without a peer to shuffle
    // against.
    addTenant("only", 0, 3, TenantPriority::PerformanceCritical);
    CoreOnlyPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    EXPECT_EQ(platform.llc().closMask(1), WayMask::fromRange(0, 3));

    for (int i = 1; i <= 4; ++i) {
        coreTraffic(0, 2000, 1ull << 30);
        platform.retire(0, 1'000'000);
        platform.advanceQuantum(0.01);
        policy.tick(i);
        const auto mask = policy.allocator().tenantMask(0);
        EXPECT_TRUE(mask.isValidCbm());
        EXPECT_GE(mask.count(), 3u) << "tick " << i;
    }
}

TEST_F(BaselinesTest, IoIsoSingleTenantWorld)
{
    // Even alone, the tenant never touches DDIO's ways -- the
    // exclusion rule caps it at num_ways - ddio_ways.
    addTenant("only", 0, 3, TenantPriority::PerformanceCritical);
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    const auto ddio = platform.llc().ddioMask();
    EXPECT_FALSE(policy.tenantMask(0).overlaps(ddio));
    EXPECT_LE(policy.tenantMask(0).count(),
              platform.pqos().l3NumWays() - ddio.count());
}

TEST_F(BaselinesTest, CoreOnlyZeroTrafficWindowHoldsAllocation)
{
    // A window with no LLC references and no retired instructions:
    // every per-tenant signal is zero, so the allocation must hold
    // exactly (no way can look "hotter" than another).
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 2, TenantPriority::BestEffort);
    CoreOnlyPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    const auto mask_a = platform.llc().closMask(1);
    const auto mask_b = platform.llc().closMask(2);

    for (int i = 1; i <= 5; ++i) {
        platform.advanceQuantum(0.01);
        policy.tick(i);
    }
    EXPECT_EQ(platform.llc().closMask(1), mask_a);
    EXPECT_EQ(platform.llc().closMask(2), mask_b);
}

TEST_F(BaselinesTest, IoIsoZeroTrafficWindowHoldsAllocation)
{
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 2, TenantPriority::BestEffort);
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    const auto mask_a = policy.tenantMask(0);
    const auto mask_b = policy.tenantMask(1);

    for (int i = 1; i <= 5; ++i) {
        platform.advanceQuantum(0.01);
        policy.tick(i);
    }
    EXPECT_EQ(policy.tenantMask(0), mask_a);
    EXPECT_EQ(policy.tenantMask(1), mask_b);
}

TEST_F(BaselinesTest, IoIsoDegradedEntryAndExit)
{
    // Degraded-capacity entry/exit: DDIO taking 6 ways squeezes the
    // tenants into 5; when it hands the ways back, the next tick
    // must restore the initial widths (stranding capacity forever
    // would be a leak of the squeeze state).
    addTenant("pc", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("be", 1, 3, TenantPriority::BestEffort);
    IoIsolationPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    EXPECT_EQ(policy.tenantMask(0).count(), 3u);
    EXPECT_EQ(policy.tenantMask(1).count(), 3u);

    platform.pqos().ddioSetWays(WayMask::fromRange(5, 6));
    policy.tick(1.0);
    const auto grown = platform.llc().ddioMask();
    EXPECT_FALSE(policy.tenantMask(0).overlaps(grown));
    EXPECT_FALSE(policy.tenantMask(1).overlaps(grown));
    EXPECT_LT(policy.tenantMask(0).count() +
                  policy.tenantMask(1).count(),
              6u);

    platform.pqos().ddioSetWays(WayMask::fromRange(9, 2));
    policy.tick(2.0);
    EXPECT_EQ(policy.tenantMask(0).count(), 3u)
        << "squeeze must undo when DDIO shrinks back";
    EXPECT_EQ(policy.tenantMask(1).count(), 3u);
    EXPECT_FALSE(policy.tenantMask(0).overlaps(
        platform.llc().ddioMask()));
}

/** Vetoes a budget of CAT mask writes (the write-rejection fault). */
class MaskVetoHook : public rdt::MsrFaultHook
{
  public:
    unsigned veto_budget = 0;

    std::uint64_t
    onRead(cache::CoreId, std::uint32_t,
           std::uint64_t value) override
    {
        return value;
    }

    bool
    onWrite(cache::CoreId, std::uint32_t addr,
            std::uint64_t) override
    {
        using namespace rdt::msr_addr;
        const bool is_mask = addr >= IA32_L3_QOS_MASK_0 &&
                             addr < IA32_L3_QOS_MASK_0 + 16;
        if (is_mask && veto_budget > 0) {
            --veto_budget;
            return false;
        }
        return true;
    }
};

TEST_F(BaselinesTest, CoreOnlyRetriesRejectedWritesNextTick)
{
    // Write-rejection entry/exit: a vetoed mask write leaves
    // hardware stale; once the fault clears, the very next tick must
    // re-program it (the stale-programmed_ retry idiom), not wait
    // for an unrelated relayout.
    addTenant("a", 0, 3, TenantPriority::PerformanceCritical);
    addTenant("b", 1, 2, TenantPriority::BestEffort);
    MaskVetoHook hook;
    hook.veto_budget = 16; // reject every mask write this tick
    platform.msrBus().setFaultHook(&hook);
    CoreOnlyPolicy policy(platform.pqos(), registry, IatParams{});
    policy.tick(0.0);
    // The hardware-reset masks survived the vetoed setup.
    EXPECT_NE(platform.llc().closMask(1), WayMask::fromRange(0, 3));

    platform.msrBus().setFaultHook(nullptr);
    platform.advanceQuantum(0.01);
    policy.tick(1.0);
    EXPECT_EQ(platform.llc().closMask(1), WayMask::fromRange(0, 3));
    EXPECT_EQ(platform.llc().closMask(2), WayMask::fromRange(3, 2));
}

TEST(ResqSizing, BoundsRingToDdioCapacity)
{
    const cache::CacheGeometry geom; // 2.25 MiB per way
    // Two ways, 1.5 KiB frames, two queues: 4.5 MiB / 2 / 1.5 KiB
    // = 1536 entries -> round down to 1024.
    EXPECT_EQ(resqRingEntries(geom, 2, 1536, 2), 1024u);
    // 64 B frames leave room for far more than a typical ring.
    EXPECT_GE(resqRingEntries(geom, 2, 64, 2), 16384u);
}

TEST(ResqSizing, FloorsAt64)
{
    const cache::CacheGeometry geom;
    EXPECT_EQ(resqRingEntries(geom, 1, 2048, 64), 64u);
}

TEST(ResqSizing, PowerOfTwo)
{
    const cache::CacheGeometry geom;
    for (unsigned ways = 1; ways <= 6; ++ways) {
        const auto entries = resqRingEntries(geom, ways, 1024, 4);
        EXPECT_EQ(entries & (entries - 1), 0u);
    }
}

} // namespace
} // namespace iat::core
