/**
 * @file
 * The sharded world's central contract: a run's digest is a pure
 * function of the configuration -- never of the worker-thread count.
 * Exercises 2-shard and 4-shard worlds against the single-threaded
 * reference interleaving, plus basic sanity of the digest itself and
 * of the per-host stream records the digest folds in.
 */

#include "cluster/world.hh"

#include <gtest/gtest.h>

#include <string>

#include "obs/stream/reader.hh"
#include "util/json.hh"

namespace iat::cluster {
namespace {

ClusterConfig
makeConfig(unsigned shards, unsigned threads, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.batch_tenants = 2;
    cfg.scheduler.policy = PlacePolicy::LoadAware;
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

std::string
runDigest(const ClusterConfig &cfg, std::uint64_t epochs)
{
    ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);
    EXPECT_EQ(world.epochs(), epochs);
    return world.digest();
}

TEST(WorldDeterminism, TwoShardsOneVsTwoThreads)
{
    for (const std::uint64_t seed : {1ull, 7ull}) {
        const auto ref = runDigest(makeConfig(2, 1, seed), 12);
        const auto par = runDigest(makeConfig(2, 2, seed), 12);
        EXPECT_EQ(par, ref) << "seed " << seed;
    }
}

TEST(WorldDeterminism, FourShardsVsSerialReference)
{
    const auto ref = runDigest(makeConfig(4, 1, 3), 8);
    const auto par = runDigest(makeConfig(4, 4, 3), 8);
    EXPECT_EQ(par, ref);
    // Oversubscribed (more workers than cores on most CI machines)
    // and unbalanced (3 workers, 4 shards) splits must also match.
    const auto odd = runDigest(makeConfig(4, 3, 3), 8);
    EXPECT_EQ(odd, ref);
}

TEST(WorldDeterminism, SameSeedReproduces)
{
    const auto a = runDigest(makeConfig(2, 1, 5), 6);
    const auto b = runDigest(makeConfig(2, 1, 5), 6);
    EXPECT_EQ(a, b);
}

TEST(WorldDeterminism, DigestSeesTheSeed)
{
    const auto a = runDigest(makeConfig(2, 1, 5), 6);
    const auto b = runDigest(makeConfig(2, 1, 6), 6);
    EXPECT_NE(a, b);
}

TEST(WorldDeterminism, ThreadCountClampsToShards)
{
    ClusterConfig cfg = makeConfig(2, 16, 1);
    ClusterWorld world(cfg);
    EXPECT_LE(world.workerThreads(), 2u);
}

TEST(ShardRecords, EveryHostStreamsAHeaderAndOneSamplePerEpoch)
{
    const ClusterConfig cfg = makeConfig(2, 1, 1);
    const std::uint64_t epochs = 6;
    ClusterWorld world(cfg);
    world.run(static_cast<double>(epochs) * cfg.epoch_seconds);

    for (unsigned s = 0; s < world.shardCount(); ++s) {
        std::string text;
        for (const auto &record : world.shard(s).records()) {
            text += record.json;
            text += '\n';
            // Every record names its host, so the hosts' records
            // can be told apart once merged.
            const auto parsed = json::parse(record.json);
            ASSERT_NE(parsed, nullptr) << record.json;
            const json::Value *host = parsed->find("host");
            ASSERT_NE(host, nullptr) << record.json;
            EXPECT_EQ(host->number, static_cast<double>(s));
        }
        const auto log = obs::stream::parseStream(text);
        EXPECT_EQ(log.header_count, 1u) << "host " << s;
        EXPECT_EQ(log.samples.size(), epochs) << "host " << s;
        EXPECT_EQ(log.bad_lines, 0u) << "host " << s;
        ASSERT_FALSE(log.columns.empty());
        for (const auto &sample : log.samples)
            EXPECT_EQ(sample.values.size(), log.columns.size());
    }
}

} // namespace
} // namespace iat::cluster
