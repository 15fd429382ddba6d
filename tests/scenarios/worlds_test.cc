/**
 * @file
 * Tests for the assembled experiment worlds: construction, tenant
 * records, conservation, placement helpers, mid-run knobs, and the
 * World contract the agg, slicing and co-run worlds share.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/daemon.hh"
#include "fault/injector.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/common.hh"
#include "scenarios/corun.hh"
#include "scenarios/l3fwd.hh"
#include "scenarios/slicing_pmd_xmem.hh"

namespace iat::scenarios {
namespace {

sim::PlatformConfig
worldConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 8;
    return cfg;
}

TEST(AggWorld, RegistryDescribesOvsPlusContainers)
{
    sim::Platform platform(worldConfig());
    AggTestPmdConfig cfg;
    cfg.num_containers = 3;
    AggTestPmdWorld world(platform, cfg);
    const auto &reg = world.registry();
    ASSERT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg[0].priority, core::TenantPriority::SoftwareStack);
    EXPECT_TRUE(reg[0].is_io);
    EXPECT_EQ(reg[0].cores.size(), 2u);
    for (std::size_t t = 1; t < 4; ++t) {
        EXPECT_EQ(reg[t].priority, core::TenantPriority::BestEffort);
        EXPECT_EQ(reg[t].initial_ways, 1u);
    }
}

TEST(AggWorld, ConservesPacketsUnderLoad)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdConfig cfg;
    cfg.frame_bytes = 256;
    AggTestPmdWorld world(platform, cfg);
    world.attach(engine);
    applyStaticLayout(platform.pqos(), world.registry());
    engine.run(0.01);
    // Received frames either left on the wire, are queued, or were
    // dropped at an interior ring (counted in totalDrops).
    EXPECT_GT(world.txPackets(), 0u);
    EXPECT_GE(world.rxPackets(), world.txPackets());
}

TEST(AggWorld, FrameSizeChangeRetargetsLineRate)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdWorld world(platform, {});
    world.attach(engine);
    applyStaticLayout(platform.pqos(), world.registry());
    world.setFrameBytes(1500);
    engine.run(0.005);
    world.resetStats();
    const auto drops0 = world.totalDrops();
    engine.run(0.01);
    // Two NICs at 1.5KB line rate ~= 3.29 Mpps each offered; what
    // the switch cannot take is dropped at the MAC, so offered =
    // received + dropped.
    const double offered =
        (world.rxPackets() + world.totalDrops() - drops0) / 0.01;
    EXPECT_NEAR(offered / 1e6, 6.58, 0.4);
}

TEST(AggWorld, ResetStatsClearsWindow)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    AggTestPmdWorld world(platform, {});
    world.attach(engine);
    applyStaticLayout(platform.pqos(), world.registry());
    engine.run(0.002);
    world.resetStats();
    EXPECT_EQ(world.txPackets(), 0u);
    EXPECT_EQ(world.rxPackets(), 0u);
}

TEST(StaticLayout, ProgramsDisjointBottomPackedMasks)
{
    sim::Platform platform(worldConfig());
    AggTestPmdWorld world(platform, {});
    const auto masks =
        applyStaticLayout(platform.pqos(), world.registry());
    cache::WayMask seen{};
    for (const auto mask : masks) {
        EXPECT_TRUE(mask.isValidCbm());
        EXPECT_FALSE(mask.overlaps(seen));
        seen = seen | mask;
    }
    // The stack sits at the bottom.
    EXPECT_EQ(masks[0].lowest(), 0u);
    // Idle ways remain at the top, under DDIO.
    EXPECT_FALSE(seen.overlaps(platform.llc().ddioMask()));
}

TEST(SlicingWorld, TenantRecordsMatchThePaper)
{
    sim::Platform platform(worldConfig());
    SlicingPmdXmemWorld world(platform, {});
    const auto &reg = world.registry();
    ASSERT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg[0].initial_ways, 3u); // testpmd pair shares 3
    EXPECT_TRUE(reg[0].is_io);
    EXPECT_EQ(reg[3].priority,
              core::TenantPriority::PerformanceCritical);
    EXPECT_FALSE(reg[3].is_io); // container 4 runs X-Mem
}

TEST(SlicingWorld, GrowXmem4ChangesWorkingSet)
{
    sim::Platform platform(worldConfig());
    SlicingPmdXmemWorld world(platform, {});
    EXPECT_EQ(world.xmem(2).workingSet(), 2 * MiB);
    world.growXmem4(10 * MiB);
    EXPECT_EQ(world.xmem(2).workingSet(), 10 * MiB);
}

TEST(L3FwdWorld, TrialWindowCountsOfferedAndDrops)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    L3FwdConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.flows = 1000;
    L3FwdWorld world(platform, cfg);
    world.attach(engine);
    applyStaticLayout(platform.pqos(), world.registry());
    const auto result = world.trialWindow(engine, 0.005, 0.02);
    EXPECT_NEAR(static_cast<double>(result.offered), 2e4, 2e3);
    EXPECT_TRUE(result.zeroLoss());
    EXPECT_GT(result.delivered, 1.8e4);
}

TEST(L3FwdWorld, OverloadLosesFrames)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    L3FwdConfig cfg;
    cfg.rate_pps = 4e7; // far beyond one core's l3fwd capacity
    L3FwdWorld world(platform, cfg);
    world.attach(engine);
    applyStaticLayout(platform.pqos(), world.registry());
    const auto result = world.trialWindow(engine, 0.005, 0.01);
    EXPECT_FALSE(result.zeroLoss());
}

TEST(CorunWorld, RedisModeTenantsAndTraffic)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "gcc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    ASSERT_EQ(world.registry().size(), 4u);
    EXPECT_TRUE(world.registry()[0].is_io);
    engine.run(0.02);
    world.resetStats();
    engine.run(0.02);
    EXPECT_GT(world.delivered(), 1000u);
    EXPECT_GT(world.pcAppProgress(), 100'000u);
    EXPECT_GT(world.latency().count(), 1000u);
    EXPECT_EQ(world.rocksdb(), nullptr);
}

TEST(CorunWorld, RocksdbPcApp)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "rocksdb";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    ASSERT_NE(world.rocksdb(), nullptr);
    engine.run(0.01);
    world.resetStats();
    engine.run(0.01);
    EXPECT_GT(world.pcAppProgress(), 100u);
    EXPECT_GT(world.rocksdb()->opKindCount(wl::YcsbOp::Read), 0u);
}

TEST(CorunWorld, NfvModeForwardsFrames)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.net_app = CorunConfig::NetApp::NfvChain;
    cfg.pc_app = "milc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    engine.run(0.01);
    world.resetStats();
    engine.run(0.01);
    EXPECT_GT(world.txPackets(), 10'000u);
    EXPECT_EQ(world.nicCount(), 4u); // one VF per chain
    EXPECT_EQ(world.model(), core::TenantModel::Slicing);
}

TEST(CorunWorld, PlacementVariantsTargetDdioWays)
{
    sim::Platform platform(worldConfig());
    CorunConfig cfg;
    CorunWorld world(platform, cfg);
    const auto ddio = platform.llc().ddioMask();

    world.applyDeterministicPlacement(0);
    for (cache::ClosId clos = 1; clos <= 4; ++clos) {
        EXPECT_FALSE(
            platform.pqos().l3caGet(clos).overlaps(ddio))
            << "variant 0 must leave DDIO's ways idle";
    }
    world.applyDeterministicPlacement(1);
    EXPECT_TRUE(platform.pqos().l3caGet(2).overlaps(ddio))
        << "variant 1 parks the PC app on DDIO's ways";
    world.applyDeterministicPlacement(2);
    EXPECT_TRUE(platform.pqos().l3caGet(4).overlaps(ddio))
        << "variant 2 parks the 10MB X-Mem on DDIO's ways";
}

TEST(CorunWorld, SoloTogglesSilenceTheRest)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunConfig cfg;
    cfg.pc_app = "gcc";
    CorunWorld world(platform, cfg);
    world.attach(engine);
    world.applyDeterministicPlacement(0);
    world.setNetworkingActive(false);
    world.setBackgroundActive(false);
    engine.run(0.01);
    world.resetStats();
    engine.run(0.01);
    EXPECT_EQ(world.delivered(), 0u);
    EXPECT_GT(world.pcAppProgress(), 100'000u);
}

TEST(CorunWorld, NicsTakeRingStallFaults)
{
    sim::Platform platform(worldConfig());
    sim::Engine engine(platform);
    CorunWorld world(platform, {});
    world.attach(engine);
    world.applyDeterministicPlacement(0);

    fault::FaultPlan plan;
    plan.seed = 1;
    plan.ring_stall_period_seconds = 0.005;
    plan.ring_stall_seconds = 0.002;
    fault::FaultInjector injector(plan);
    for (unsigned i = 0; i < world.nicCount(); ++i)
        injector.addNic(world.nic(i));
    injector.arm(engine, platform);
    engine.run(0.03);

    EXPECT_GT(injector.ringStalls(), 0u);
    std::uint64_t drops = 0;
    for (unsigned i = 0; i < world.nicCount(); ++i)
        drops += world.nic(i).rxStats().totalDrops();
    EXPECT_GT(drops, 0u);
}

/** A world built by scenario name and driven only through World. */
class WorldContract : public ::testing::TestWithParam<std::string>
{
  protected:
    WorldContract() : platform_(worldConfig()), engine_(platform_)
    {
        const std::string &name = GetParam();
        if (name == "agg") {
            world_ = std::make_unique<AggTestPmdWorld>(
                platform_, AggTestPmdConfig{});
        } else if (name == "slicing") {
            world_ = std::make_unique<SlicingPmdXmemWorld>(
                platform_, SlicingPmdXmemConfig{});
        } else {
            world_ = std::make_unique<CorunWorld>(platform_,
                                                  CorunConfig{});
        }
        world_->attach(engine_);
        applyStaticLayout(platform_.pqos(), world_->registry());
    }

    sim::Platform platform_;
    sim::Engine engine_;
    std::unique_ptr<World> world_;
};

TEST_P(WorldContract, ExposesTwoNicsAndAPipeline)
{
    EXPECT_EQ(world_->nicCount(), 2u);
    EXPECT_NE(world_->pipeline(), nullptr);
}

TEST_P(WorldContract, WindowCountsUntilResetStats)
{
    engine_.run(0.01);
    EXPECT_GT(world_->txPackets(), 0u);
    EXPECT_GT(world_->delivered(), 0u);
    EXPECT_GT(world_->latency().count(), 0u);

    world_->resetStats();
    EXPECT_EQ(world_->txPackets(), 0u);
    EXPECT_EQ(world_->rxPackets(), 0u);
    EXPECT_EQ(world_->delivered(), 0u);
    EXPECT_EQ(world_->latency().count(), 0u);
}

TEST_P(WorldContract, PausingTenantZeroSilencesTheNics)
{
    world_->setTenantActive(0, false);
    engine_.run(0.005);
    EXPECT_EQ(world_->rxPackets(), 0u);

    world_->setTenantActive(0, true);
    engine_.run(0.005);
    EXPECT_GT(world_->rxPackets(), 0u);
}

TEST_P(WorldContract, ModelMatchesTheScenario)
{
    EXPECT_EQ(world_->model(), GetParam() == "slicing"
                                   ? core::TenantModel::Slicing
                                   : core::TenantModel::Aggregation);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorlds, WorldContract,
    ::testing::Values("agg", "slicing", "corun"),
    [](const ::testing::TestParamInfo<std::string> &scenario) {
        return scenario.param;
    });

TEST(CorunWorldDeath, RejectsBadPlacementVariant)
{
    sim::Platform platform(worldConfig());
    CorunWorld world(platform, {});
    EXPECT_DEATH(world.applyDeterministicPlacement(3),
                 "variant out of range");
}

} // namespace
} // namespace iat::scenarios
