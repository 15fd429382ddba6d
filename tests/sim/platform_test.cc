/**
 * @file
 * Unit tests for the Platform memory paths and telemetry.
 */

#include "sim/platform.hh"

#include <gtest/gtest.h>

namespace iat::sim {
namespace {

using cache::AccessType;

PlatformConfig
smallConfig()
{
    PlatformConfig cfg;
    cfg.num_cores = 4;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 256;
    cfg.l2.num_sets = 64;
    cfg.l2.num_ways = 4;
    return cfg;
}

class PlatformTest : public testing::Test
{
  protected:
    PlatformTest() : platform(smallConfig()) {}
    Platform platform;
};

TEST_F(PlatformTest, LatencyTiersColdWarmHot)
{
    const auto &lat = platform.config().latency;
    // Cold: misses L2 and LLC -> DRAM latency.
    const double cold = platform.coreAccess(0, 4096,
                                            AccessType::Read);
    EXPECT_GT(cold, lat.llc_hit_cycles);
    // Warm: hits L2 now.
    const double hot = platform.coreAccess(0, 4096, AccessType::Read);
    EXPECT_DOUBLE_EQ(hot, lat.l2_hit_cycles);
}

TEST_F(PlatformTest, LlcHitTier)
{
    // Bring the line in via another core, then read it from core 1
    // whose L2 is cold: must cost exactly an LLC hit.
    platform.coreAccess(0, 4096, AccessType::Read);
    const double warm = platform.coreAccess(1, 4096,
                                            AccessType::Read);
    EXPECT_DOUBLE_EQ(warm, platform.config().latency.llc_hit_cycles);
}

TEST_F(PlatformTest, CoreTouchAmortizesWithMlp)
{
    // 8 lines bulk-read vs 8 dependent reads of the same data layout.
    const double bulk =
        platform.coreTouch(0, 1 << 20, 8 * 64, AccessType::Read);
    double dependent = 0.0;
    for (int i = 0; i < 8; ++i) {
        dependent += platform.coreAccess(
            0, (2 << 20) + i * 64, AccessType::Read);
    }
    EXPECT_LT(bulk, dependent * 0.5);
}

TEST_F(PlatformTest, DmaWriteUsesDdioPath)
{
    platform.dmaWrite(0, 0, 1500);
    std::uint64_t allocs = 0;
    for (unsigned s = 0; s < platform.llc().geometry().num_slices;
         ++s) {
        allocs += platform.llc().sliceCounters(s).ddio_misses;
    }
    EXPECT_EQ(allocs, linesFor(1500));
    // No DRAM traffic: write allocate absorbed the lines.
    EXPECT_EQ(platform.dram().counters().totalWriteBytes(), 0u);
}

TEST_F(PlatformTest, DmaReadMissGoesToDram)
{
    platform.dmaRead(0, 1 << 22, 128);
    EXPECT_EQ(platform.dram().counters().read_bytes[
                  static_cast<unsigned>(mem::DramSource::DeviceDma)],
              128u);
}

TEST_F(PlatformTest, DmaReadHitStaysInLlc)
{
    platform.dmaWrite(0, 1 << 22, 64);
    platform.dmaRead(0, 1 << 22, 64);
    EXPECT_EQ(platform.dram().counters().totalReadBytes(), 0u);
}

TEST_F(PlatformTest, DdioDisabledChargesDramWrites)
{
    platform.llc().setDdioEnabled(false);
    platform.dmaWrite(0, 0, 640);
    EXPECT_EQ(platform.dram().counters().write_bytes[
                  static_cast<unsigned>(mem::DramSource::DeviceDma)],
              640u);
}

TEST_F(PlatformTest, MbmChargesTheCoreRmid)
{
    platform.llc().assocCoreRmid(2, 9);
    platform.coreAccess(2, 1 << 21, AccessType::Read); // DRAM fill
    EXPECT_EQ(platform.mbmBytes(9), 64u);
    EXPECT_EQ(platform.mbmBytes(0), 0u);
}

TEST_F(PlatformTest, AdvanceQuantumClocksAllCores)
{
    platform.advanceQuantum(1e-3);
    const auto expected = static_cast<std::uint64_t>(
        1e-3 * platform.config().core_hz);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(platform.cyclesElapsed(c), expected);
    EXPECT_DOUBLE_EQ(platform.now(), 1e-3);
}

TEST_F(PlatformTest, RetireAccumulates)
{
    platform.retire(1, 100);
    platform.retire(1, 50);
    EXPECT_EQ(platform.instructionsRetired(1), 150u);
    EXPECT_EQ(platform.instructionsRetired(0), 0u);
}

TEST_F(PlatformTest, L2WritebackReachesLlcDirty)
{
    // Write a line, then force it out of the tiny L2 by streaming;
    // the LLC copy must carry the dirty data (observable as a
    // writeback when the LLC evicts it later, but here simply as
    // still-present in LLC after L2 eviction).
    platform.coreAccess(0, 64, AccessType::Write);
    for (std::uint64_t i = 1; i < 2000; ++i)
        platform.coreAccess(0, (1 << 23) + i * 64, AccessType::Read);
    EXPECT_FALSE(platform.l2(0).isPresent(64));
    EXPECT_TRUE(platform.llc().isPresent(64));
}

TEST_F(PlatformTest, CoreTouchZeroBytesFree)
{
    EXPECT_DOUBLE_EQ(
        platform.coreTouch(0, 0, 0, AccessType::Read), 0.0);
}

TEST(PlatformBulk, CoreTouchMatchesScalarAccessState)
{
    // coreTouch() runs its lines through the L2 in order and batches
    // the misses into one LLC walk; identical streams must leave it
    // with the same L2 and LLC state as per-line coreAccess() calls.
    Platform scalar(smallConfig());
    Platform bulk(smallConfig());

    std::uint64_t x = 99;
    for (int span = 0; span < 400; ++span) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto base = static_cast<cache::Addr>(
            (x % (1u << 15)) * 64);
        const std::uint32_t lines = 1 + (x >> 40) % 16;
        const auto type =
            (span & 3) == 0 ? AccessType::Write : AccessType::Read;
        const auto core = static_cast<cache::CoreId>(span & 3);
        bulk.coreTouch(core, base, lines * 64, type);
        for (std::uint32_t l = 0; l < lines; ++l)
            scalar.coreAccess(core, base + l * 64, type);
    }

    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(bulk.l2(c).hits(), scalar.l2(c).hits())
            << "core " << c;
        EXPECT_EQ(bulk.l2(c).misses(), scalar.l2(c).misses())
            << "core " << c;
        EXPECT_EQ(bulk.llc().coreCounters(c).llc_refs,
                  scalar.llc().coreCounters(c).llc_refs)
            << "core " << c;
        EXPECT_EQ(bulk.llc().coreCounters(c).llc_misses,
                  scalar.llc().coreCounters(c).llc_misses)
            << "core " << c;
    }
    EXPECT_EQ(bulk.llc().totalWritebacks(),
              scalar.llc().totalWritebacks());
}

} // namespace
} // namespace iat::sim
