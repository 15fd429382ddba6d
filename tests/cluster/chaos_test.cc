/**
 * @file
 * Cluster chaos integration tests (DESIGN.md SS16): fault-plan runs
 * stay bit-identical across worker-thread counts, a crash really
 * loses frames and freezes the victim's clock, migration measurably
 * costs the destination (cold-cache warmup) and the fabric (transfer
 * frames), and the Failover policy heals a host crash end to end
 * with the health watchdogs firing.
 */

#include "cluster/world.hh"

#include <gtest/gtest.h>

#include <string>

namespace iat::cluster {
namespace {

ClusterConfig
makeConfig(unsigned shards, unsigned threads, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.batch_tenants = 2;
    cfg.scheduler.policy = PlacePolicy::Static;
    cfg.shard.containers = 1;
    cfg.shard.batch_slots = 2;
    cfg.shard.batch_ws_bytes = 1u << 20;
    cfg.shard.rate_pps = 4e5;
    cfg.shard.flows = 8;
    cfg.shard.ring_entries = 128;
    cfg.shard.remote_rate_pps = 2e5;
    cfg.shard.seed = seed;
    return cfg;
}

/** Every fault class at once, all windows inside ~24 epochs. */
fault::ClusterFaultPlan
fullPlan()
{
    fault::ClusterFaultPlan plan;
    plan.crash_host = 1;
    plan.crash_epoch = 6;
    plan.crash_recovery = 8;
    plan.slow_host = 2;
    plan.slow_epoch = 4;
    plan.slow_duration = 12;
    plan.slow_factor = 3;
    plan.degrade_factor = 4.0;
    plan.degrade_epoch = 2;
    plan.degrade_duration = 10;
    plan.drop_prob = 0.3;
    plan.drop_epoch = 0;
    plan.drop_duration = 20;
    plan.partition_cut = 2;
    plan.partition_epoch = 16;
    plan.partition_duration = 6;
    return plan;
}

std::string
runDigest(const ClusterConfig &cfg, std::uint64_t epochs)
{
    ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);
    return world.digest();
}

TEST(ClusterChaos, FaultedDigestIdenticalAcrossThreads)
{
    for (const std::uint64_t seed : {1ull, 7ull}) {
        ClusterConfig ref_cfg = makeConfig(4, 1, seed);
        ref_cfg.scheduler.policy = PlacePolicy::Failover;
        ref_cfg.scheduler.dead_after_epochs = 4;
        ref_cfg.scheduler.degraded_after_epochs = 2;
        ref_cfg.fault = fullPlan();
        const auto ref = runDigest(ref_cfg, 24);
        for (const unsigned threads : {2u, 4u}) {
            ClusterConfig cfg = ref_cfg;
            cfg.threads = threads;
            EXPECT_EQ(runDigest(cfg, 24), ref)
                << "seed " << seed << " threads " << threads;
        }
    }
}

TEST(ClusterChaos, DigestSeesTheFaultPlan)
{
    const ClusterConfig clean = makeConfig(4, 1, 1);
    ClusterConfig faulted = clean;
    faulted.fault = fullPlan();
    EXPECT_NE(runDigest(faulted, 24), runDigest(clean, 24));
}

TEST(ClusterChaos, CrashLosesFramesAndFreezesClock)
{
    ClusterConfig cfg = makeConfig(2, 1, 1);
    cfg.fault.crash_host = 1;
    cfg.fault.crash_epoch = 4;
    cfg.fault.crash_recovery = 6;

    ClusterWorld world(cfg);
    world.run(16.0 * cfg.epoch_seconds);

    const auto *inj = world.injector();
    ASSERT_NE(inj, nullptr);
    // Remote traffic was in flight toward host 1 when it died: those
    // frames are gone, and the ledger knows.
    EXPECT_GT(inj->crashFramesLost(), 0u);
    EXPECT_EQ(inj->hostEpochsSkipped(), 6u);
    // Conservation holds even with losses: delivered (including the
    // discarded-at-a-dead-host ones) plus still-in-flight equals
    // routed, and hook drops never entered routed.
    auto &fabric = world.fabric();
    std::uint64_t in_flight = 0;
    for (unsigned s = 0; s < world.shardCount(); ++s)
        in_flight += fabric.inFlight(s);
    EXPECT_EQ(fabric.framesDelivered() + in_flight,
              fabric.framesRouted());
    // The victim's clock froze for the 6 skipped epochs and stays
    // behind the cluster barrier clock after recovery. (NEAR: the
    // engine accumulates its clock quantum by quantum.)
    EXPECT_NEAR(world.shard(1).platform().now(),
                (16.0 - 6.0) * cfg.epoch_seconds,
                1e-3 * cfg.epoch_seconds);
    EXPECT_NEAR(world.shard(0).platform().now(),
                16.0 * cfg.epoch_seconds,
                1e-3 * cfg.epoch_seconds);
}

TEST(ClusterChaos, MigrationIsNeverFree)
{
    // A/B: identical worlds except one commanded migration. The
    // migrating world must route extra transfer frames, and the
    // destination host must show the cold-tenant warmup in its LLC
    // miss-rate gauge.
    ClusterConfig cfg = makeConfig(2, 1, 3);
    const std::uint64_t warm = 20;

    ClusterWorld still(cfg);
    ClusterWorld moving(cfg);
    still.run(static_cast<double>(warm) * cfg.epoch_seconds);
    moving.run(static_cast<double>(warm) * cfg.epoch_seconds);

    // Tenant 1 lives on host 0 (first-fit); send it to host 1.
    ASSERT_EQ(moving.scheduler().shardOf(1), 0u);
    ASSERT_TRUE(moving.requestMigration(1, 1));
    EXPECT_EQ(moving.migrationsInTransit(), 1u);
    // In transit: not attached anywhere, and a second request for
    // the same tenant must be refused.
    EXPECT_FALSE(moving.requestMigration(1, 0));

    const std::uint64_t settle = cfg.migration_epochs + 2;
    still.run(static_cast<double>(settle) * cfg.epoch_seconds);
    moving.run(static_cast<double>(settle) * cfg.epoch_seconds);

    EXPECT_EQ(moving.migrationArrivals(), 1u);
    EXPECT_EQ(moving.migrationsInTransit(), 0u);
    EXPECT_EQ(moving.scheduler().shardOf(1), 1u);

    // Fabric cost: the transfer frames are real routed traffic.
    EXPECT_GE(moving.fabric().framesRouted(),
              still.fabric().framesRouted() + cfg.migration_frames);

    // Destination cost: the tenant arrives with cold LLC/L2, so the
    // destination's miss rate right after the attach sits above its
    // own steady state once the working set re-warms. (The
    // no-migration world is no baseline here: with only streaming
    // remote traffic host 1 idles at miss rate ~1.0.)
    const double cold = moving.shard(1).gauge("llc.miss_rate");
    moving.run(40.0 * cfg.epoch_seconds);
    const double warmed = moving.shard(1).gauge("llc.miss_rate");
    EXPECT_GT(cold, warmed);
}

TEST(ClusterChaos, FailoverHealsACrashEndToEnd)
{
    ClusterConfig cfg = makeConfig(3, 1, 1);
    cfg.scheduler.policy = PlacePolicy::Failover;
    cfg.scheduler.margin = 10.0; // evacuations only
    cfg.scheduler.dead_after_epochs = 4;
    cfg.scheduler.degraded_after_epochs = 2;
    cfg.fault.crash_host = 0;
    cfg.fault.crash_epoch = 8;
    cfg.fault.crash_recovery = 0; // permanent

    ClusterWorld world(cfg);
    // Crash at 8 + detection at age 4 + one evacuation per epoch +
    // transfer windows: 40 epochs is bounded-time recovery with
    // plenty of slack.
    world.run(40.0 * cfg.epoch_seconds);

    auto &sched = world.scheduler();
    EXPECT_EQ(sched.evacuations(), 2u);
    EXPECT_EQ(world.migrationArrivals(), 2u);
    EXPECT_EQ(world.migrationsInTransit(), 0u);
    for (std::size_t t = 0; t < sched.tenantCount(); ++t)
        EXPECT_NE(sched.shardOf(t), 0u) << "tenant " << t;

    // The dead host's heartbeat age kept growing; survivors stayed
    // current.
    EXPECT_GE(world.heartbeatAge(0), 30u);
    EXPECT_EQ(world.heartbeatAge(1), 0u);

    // The host_down watchdog latched the crash.
    EXPECT_GE(world.health().transitions(), 1u);
    const auto *rule = world.health().status().rule("host_down");
    ASSERT_NE(rule, nullptr);
    EXPECT_TRUE(rule->firing);
}

TEST(ClusterChaos, StaticStrandsTenantsOnDeadHost)
{
    ClusterConfig cfg = makeConfig(3, 1, 1);
    cfg.fault.crash_host = 0;
    cfg.fault.crash_epoch = 8;
    cfg.fault.crash_recovery = 0;

    ClusterWorld world(cfg);
    world.run(40.0 * cfg.epoch_seconds);

    auto &sched = world.scheduler();
    EXPECT_EQ(sched.evacuations(), 0u);
    EXPECT_EQ(sched.shardOf(0), 0u);
    EXPECT_EQ(sched.shardOf(1), 0u);
}

TEST(ClusterChaos, PartitionLooksLikeDeathUntilItHeals)
{
    // A 4-host cluster cut 2|2: Failover sees half the cluster go
    // silent at once, suspects the partition, and moves nothing;
    // after the cut heals the backoff stops and no tenant moved.
    ClusterConfig cfg = makeConfig(4, 1, 1);
    cfg.batch_tenants = 4;
    cfg.scheduler.policy = PlacePolicy::Failover;
    cfg.scheduler.margin = 10.0;
    cfg.scheduler.dead_after_epochs = 4;
    cfg.scheduler.degraded_after_epochs = 2;
    cfg.fault.partition_cut = 2;
    cfg.fault.partition_epoch = 4;
    cfg.fault.partition_duration = 12;

    ClusterWorld world(cfg);
    world.run(30.0 * cfg.epoch_seconds);

    auto &sched = world.scheduler();
    EXPECT_GT(sched.partitionBackoffs(), 0u);
    EXPECT_EQ(sched.evacuations(), 0u);
    // Every tenant still where first-fit put it.
    EXPECT_EQ(sched.shardOf(0), 0u);
    EXPECT_EQ(sched.shardOf(2), 1u);
    // Both sides kept running the whole time (a partition is not a
    // crash), so every clock agrees at the barrier.
    EXPECT_NEAR(world.shard(3).platform().now(),
                30.0 * cfg.epoch_seconds,
                1e-3 * cfg.epoch_seconds);
}

} // namespace
} // namespace iat::cluster
