/**
 * @file
 * Unit tests for the FaultInjector: arming windows, MSR read/write
 * perturbation discipline, poll drops, NIC schedules and tenant
 * churn -- all seeded and replayable -- plus the attachPolicy() hook
 * that consults it.
 */

#include "fault/injector.hh"

#include <gtest/gtest.h>

#include "core/policy.hh"
#include "rdt/msr.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"

namespace iat::fault {
namespace {

using namespace rdt::msr_addr;

sim::PlatformConfig
testConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 2;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 64;
    return cfg;
}

/** Platform + engine + injector, armed by running past t=start. */
struct Rig
{
    explicit Rig(const FaultPlan &plan)
        : platform(testConfig()), engine(platform), injector(plan)
    {
        injector.arm(engine, platform);
    }

    void
    runPast(double t)
    {
        engine.run(t - platform.now() + 1e-9);
    }

    sim::Platform platform;
    sim::Engine engine;
    FaultInjector injector;
};

TEST(FaultInjector, ArmsAtStartAndDisarmsAfterDuration)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0;
    plan.start_seconds = 0.01;
    plan.duration_seconds = 0.02;
    Rig rig(plan);

    EXPECT_FALSE(rig.injector.armed());
    EXPECT_FALSE(rig.injector.dropPoll(0.005));

    rig.runPast(0.01);
    EXPECT_TRUE(rig.injector.armed());
    EXPECT_TRUE(rig.injector.dropPoll(0.015));
    EXPECT_EQ(rig.injector.pollsDropped(), 1u);

    rig.runPast(0.03);
    EXPECT_FALSE(rig.injector.armed());
    EXPECT_FALSE(rig.injector.dropPoll(0.035));
    EXPECT_EQ(rig.injector.pollsDropped(), 1u);
}

TEST(FaultInjector, CounterOffsetShiftsOnlyCounterReads)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.counter_offset = 1000;
    Rig rig(plan);
    rig.runPast(0.0); // arm at t=0

    auto &bus = rig.platform.msrBus();
    // Monotonic counters are shifted...
    EXPECT_EQ(bus.read(0, IA32_FIXED_CTR0), 1000u);
    // ...config registers are read back exactly (perturbing them
    // would corrupt read-modify-write sequences like PQR_ASSOC).
    const auto pqr = bus.read(0, IA32_PQR_ASSOC);
    const auto ok = bus.write(0, IA32_PQR_ASSOC, pqr);
    EXPECT_EQ(ok, rdt::MsrWriteStatus::Ok);
    EXPECT_EQ(bus.read(0, IA32_PQR_ASSOC), pqr);
    // ...and the occupancy register (a level, not an accumulator)
    // is left alone too.
    EXPECT_EQ(bus.read(0, IA32_QM_CTR), 0u);
}

TEST(FaultInjector, CounterOffsetWrapsAt48Bits)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.counter_offset = (std::uint64_t{1} << 48) - 1;
    Rig rig(plan);
    rig.runPast(0.0);

    // 0 + (2^48 - 1) stays inside the counter width; the next count
    // would wrap to 0, exactly like hardware.
    EXPECT_EQ(rig.platform.msrBus().read(0, IA32_FIXED_CTR0),
              (std::uint64_t{1} << 48) - 1);
}

TEST(FaultInjector, WriteRejectVetoesAndCounts)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.write_reject = 1.0;
    Rig rig(plan);
    rig.runPast(0.0);

    auto &bus = rig.platform.msrBus();
    const auto before = bus.read(0, IA32_PQR_ASSOC);
    EXPECT_EQ(bus.write(0, IA32_PQR_ASSOC, 1),
              rdt::MsrWriteStatus::Rejected);
    EXPECT_EQ(bus.read(0, IA32_PQR_ASSOC), before);
    EXPECT_GE(rig.injector.writeRejects(), 1u);
}

TEST(FaultInjector, ReadNoiseIsSeededAndReplayable)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.read_noise = 1.0;
    plan.read_noise_mag = 8.0;

    const auto sequence = [&]() {
        Rig rig(plan);
        rig.runPast(0.0);
        // Give the counter a non-zero value so noise has something
        // to scale.
        rig.platform.llc().coreAccess(0, 0x1000,
                                      cache::AccessType::Read);
        std::vector<std::uint64_t> reads;
        for (int i = 0; i < 8; ++i)
            reads.push_back(
                rig.platform.msrBus().read(0, PMC_LLC_REFERENCE));
        return reads;
    };

    const auto a = sequence();
    const auto b = sequence();
    EXPECT_EQ(a, b); // same seed -> byte-identical fault schedule

    FaultPlan other = plan;
    other.seed = 100;
    Rig rig(other);
    rig.runPast(0.0);
    rig.platform.llc().coreAccess(0, 0x1000,
                                  cache::AccessType::Read);
    std::vector<std::uint64_t> c;
    for (int i = 0; i < 8; ++i)
        c.push_back(rig.platform.msrBus().read(0, PMC_LLC_REFERENCE));
    EXPECT_NE(a, c); // different seed -> different schedule
}

TEST(FaultInjector, ChurnParksAndReaddsTheLastTenant)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.churn_period_seconds = 0.01;
    Rig rig(plan);

    core::TenantRegistry registry;
    core::TenantSpec a;
    a.name = "a";
    a.cores = {0};
    registry.add(a);
    core::TenantSpec b;
    b.name = "b";
    b.cores = {1};
    registry.add(b);
    rig.injector.setRegistry(&registry);
    // Re-arm the schedule knowing the registry. (arm ran in the
    // ctor without one; re-arming twice would double-schedule, so
    // this test relies on the registry pointer being late-bound.)
    rig.runPast(0.0105);
    EXPECT_EQ(registry.size(), 1u); // departure
    EXPECT_EQ(rig.injector.churnEvents(), 1u);

    rig.runPast(0.0205);
    EXPECT_EQ(registry.size(), 2u); // re-arrival
    EXPECT_EQ(registry[1].name, "b");
    EXPECT_EQ(rig.injector.churnEvents(), 2u);
}

TEST(FaultInjector, ChurnNeverEmptiesTheRegistry)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.churn_period_seconds = 0.01;
    Rig rig(plan);

    core::TenantRegistry registry;
    core::TenantSpec only;
    only.name = "only";
    only.cores = {0};
    registry.add(only);
    rig.injector.setRegistry(&registry);

    rig.runPast(0.05);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(rig.injector.churnEvents(), 0u);
}

/** Counts its ticks under whatever kind the test names. */
class CountingPolicy final : public core::Policy
{
  public:
    explicit CountingPolicy(core::PolicyKind kind) : kind_(kind) {}

    void tick(double) override { ++ticks; }
    core::PolicyKind kind() const override { return kind_; }

    std::uint64_t ticks = 0;

  private:
    core::PolicyKind kind_;
};

TEST(FaultInjector, AttachedPolicyNeverTicksWhenEveryPollDrops)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0;
    Rig rig(plan); // arms at t=0, ahead of the t=0 setup tick
    CountingPolicy gated(core::PolicyKind::CoreOnly);
    CountingPolicy free_running(core::PolicyKind::CoreOnly);
    attachPolicy(rig.engine, gated, 0.005, &rig.injector);
    attachPolicy(rig.engine, free_running, 0.005);

    rig.runPast(0.05);
    EXPECT_EQ(gated.ticks, 0u);
    EXPECT_GE(free_running.ticks, 10u);
    EXPECT_EQ(rig.injector.pollsDropped(), free_running.ticks);
}

TEST(FaultInjector, StaticPolicyGetsNoHook)
{
    FaultPlan plan;
    plan.seed = 1;
    plan.poll_drop = 1.0;
    Rig rig(plan);
    CountingPolicy baseline(core::PolicyKind::Static);
    attachPolicy(rig.engine, baseline, 0.005, &rig.injector);
    attachPolicy(rig.engine, baseline, 0.005);

    rig.runPast(0.05);
    EXPECT_EQ(baseline.ticks, 0u);
    EXPECT_EQ(rig.injector.pollsDropped(), 0u)
        << "an un-hooked Static draws no poll-drop coins";
}

} // namespace
} // namespace iat::fault
