/**
 * @file
 * Unit tests for the Zipf generator.
 */

#include "util/zipf.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <vector>

namespace iat {
namespace {

TEST(Zipf, RankZeroIsMostPopular)
{
    ZipfGenerator zipf(1000, 0.99);
    Rng rng(1);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.next(rng)];
    int best_rank = -1;
    int best_count = -1;
    for (const auto &[rank, count] : counts) {
        if (count > best_count) {
            best_count = count;
            best_rank = static_cast<int>(rank);
        }
    }
    EXPECT_EQ(best_rank, 0);
}

TEST(Zipf, RanksStayInRange)
{
    ZipfGenerator zipf(100, 0.99);
    Rng rng(2);
    for (int i = 0; i < 100000; ++i)
        EXPECT_LT(zipf.next(rng), 100u);
}

TEST(Zipf, PopularityDecreasesWithRank)
{
    ZipfGenerator zipf(10000, 0.99);
    Rng rng(3);
    std::vector<int> counts(10000, 0);
    for (int i = 0; i < 500000; ++i)
        ++counts[zipf.next(rng)];
    // Aggregate popularity over rank decades must decrease.
    long head = 0, mid = 0, tail = 0;
    for (int r = 0; r < 10; ++r)
        head += counts[r];
    for (int r = 100; r < 110; ++r)
        mid += counts[r];
    for (int r = 5000; r < 5010; ++r)
        tail += counts[r];
    EXPECT_GT(head, mid);
    EXPECT_GT(mid, tail);
}

TEST(Zipf, ThetaZeroIsUniformish)
{
    ZipfGenerator zipf(10, 0.0);
    Rng rng(4);
    std::vector<int> counts(10, 0);
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.next(rng)];
    for (auto c : counts) {
        EXPECT_GT(c, n / 10 * 0.85);
        EXPECT_LT(c, n / 10 * 1.15);
    }
}

TEST(Zipf, ScrambledPreservesSkewButMovesHotKey)
{
    ZipfGenerator zipf(100000, 0.99);
    Rng rng(5);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.nextScrambled(rng)];
    // The most popular scrambled key should hold the same share the
    // rank-0 item would (~ 1/zeta), and need not be key 0.
    int best_count = 0;
    for (const auto &[key, count] : counts)
        best_count = std::max(best_count, count);
    EXPECT_GT(best_count, 200000 / 100); // far above uniform 2/key
}

TEST(Zipf, ScrambledStaysInRange)
{
    ZipfGenerator zipf(1234, 0.9);
    Rng rng(6);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(zipf.nextScrambled(rng), 1234u);
}

TEST(Zipf, ScrambledStreamIsPinned)
{
    // The first 16 scrambled draws over the 1M-record YCSB table at
    // a fixed seed: a change to the sampler, its normaliser or its
    // use of the rng stream changes them.
    constexpr std::array<std::uint64_t, 16> golden = {
        174405, 969503, 584996, 227360, 546336, 91126, 70160, 733490,
        654915, 174405, 751322, 484857, 741266, 388114, 262458, 338061};
    ZipfGenerator zipf(1'000'000, 0.99);
    Rng rng(2024);
    for (std::size_t i = 0; i < golden.size(); ++i)
        EXPECT_EQ(zipf.nextScrambled(rng), golden[i]) << "draw " << i;
}

TEST(ZipfDeath, RejectsEmptySet)
{
    EXPECT_DEATH(ZipfGenerator(0, 0.99), "empty item set");
}

TEST(ZipfDeath, RejectsThetaOne)
{
    EXPECT_DEATH(ZipfGenerator(10, 1.0), "theta");
}

} // namespace
} // namespace iat
