/**
 * @file
 * Tests for PlatformSnapshot / StatsReport.
 */

#include <gtest/gtest.h>

#include "sim/stats_report.hh"

namespace iat::sim {
namespace {

using cache::AccessType;

PlatformConfig
testConfig()
{
    PlatformConfig cfg;
    cfg.num_cores = 4;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 128;
    return cfg;
}

TEST(StatsReport, CaptureReflectsActivity)
{
    Platform platform(testConfig());
    platform.coreAccess(1, 4096, AccessType::Read);
    platform.retire(1, 500);
    platform.dmaWrite(0, 1 << 20, 128);
    platform.advanceQuantum(1e-3);

    const auto snap = PlatformSnapshot::capture(platform);
    EXPECT_DOUBLE_EQ(snap.now_seconds, 1e-3);
    EXPECT_EQ(snap.cores[1].instructions, 500u);
    EXPECT_EQ(snap.cores[1].llc_refs, 1u);
    EXPECT_EQ(snap.ddio_misses, 2u);
    EXPECT_EQ(snap.dram_read_bytes, 64u);
}

TEST(StatsReport, SinceComputesDeltas)
{
    Platform platform(testConfig());
    platform.retire(0, 100);
    platform.advanceQuantum(1e-3);
    const auto a = PlatformSnapshot::capture(platform);
    platform.retire(0, 250);
    platform.advanceQuantum(1e-3);
    const auto b = PlatformSnapshot::capture(platform);
    const auto delta = b.since(a);
    EXPECT_EQ(delta.cores[0].instructions, 250u);
    EXPECT_DOUBLE_EQ(delta.now_seconds, 1e-3);
}

TEST(StatsReport, SinceSubtractsPerDeviceDdioCounters)
{
    Platform platform(testConfig());
    platform.dmaWrite(1, 1 << 20, 128); // two write allocates
    const auto a = PlatformSnapshot::capture(platform);
    ASSERT_EQ(a.devices.size(), cache::SlicedLlc::numDevices);
    EXPECT_EQ(a.devices[1].ddio_misses, 2u);

    platform.dmaWrite(1, 1 << 20, 128); // the same lines: two updates
    platform.dmaWrite(2, 2 << 20, 64);  // one allocate, device 2
    const auto delta = PlatformSnapshot::capture(platform).since(a);
    EXPECT_EQ(delta.devices[1].ddio_hits, 2u);
    EXPECT_EQ(delta.devices[1].ddio_misses, 0u);
    EXPECT_EQ(delta.devices[2].ddio_hits, 0u);
    EXPECT_EQ(delta.devices[2].ddio_misses, 1u);
    EXPECT_EQ(delta.devices[0].ddio_hits + delta.devices[0].ddio_misses,
              0u);
    EXPECT_EQ(delta.ddio_hits, 2u);
    EXPECT_EQ(delta.ddio_misses, 1u);
}

TEST(StatsReport, SumCoresAddsOnlyTheListedCores)
{
    Platform platform(testConfig());
    platform.retire(0, 100);
    platform.retire(2, 30);
    platform.retire(3, 7);
    platform.coreAccess(2, 4096, AccessType::Read);
    platform.advanceQuantum(1e-3);
    const auto snap = PlatformSnapshot::capture(platform);
    const auto sum = snap.sumCores({0, 2});
    EXPECT_EQ(sum.instructions, 130u);
    EXPECT_EQ(sum.cycles, snap.cores[0].cycles + snap.cores[2].cycles);
    EXPECT_EQ(sum.llc_refs, 1u);
    EXPECT_EQ(snap.sumCores({}).instructions, 0u);
}

TEST(StatsReport, TablesSkipIdleCores)
{
    Platform platform(testConfig());
    platform.retire(2, 10);
    platform.advanceQuantum(1e-3);
    const auto snap = PlatformSnapshot::capture(platform);
    StatsReport report(snap);
    EXPECT_EQ(report.coreTable().rowCount(), 1u);
    EXPECT_GE(report.memoryTable().rowCount(), 6u);
}

TEST(StatsReport, OccupancyIsALevelNotACounter)
{
    Platform platform(testConfig());
    platform.llc().assocCoreRmid(0, 3);
    platform.coreAccess(0, 4096, AccessType::Read);
    platform.advanceQuantum(1e-3);
    const auto a = PlatformSnapshot::capture(platform);
    platform.advanceQuantum(1e-3);
    const auto delta =
        PlatformSnapshot::capture(platform).since(a);
    // since() keeps the current occupancy rather than a difference.
    EXPECT_EQ(delta.rmid_bytes[3], 64u);
}

} // namespace
} // namespace iat::sim
