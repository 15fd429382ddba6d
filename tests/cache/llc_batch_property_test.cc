/**
 * @file
 * Equivalence property tests for the batched LLC access paths.
 *
 * Two identically configured SlicedLlc instances replay the same
 * randomized operation trace: the reference instance through the
 * scalar paths (coreAccess / writebackFromCore / ddioWrite /
 * deviceRead, one call per op), the subject instance through the
 * batched paths (accessBatch / ddioWriteRange / deviceReadRange) with
 * randomized batch boundaries. The batched paths promise *state
 * equivalence*, so everything observable must match exactly: per-op
 * hit and victim-writeback outcomes, slice and core PMU counters,
 * CLOS/RMID occupancy, total writebacks, and the full line directory
 * (which pins down every eviction victim).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "cache/llc.hh"
#include "util/rng.hh"

namespace iat::cache {
namespace {

/** Address universe: small enough to sweep, large enough to evict. */
constexpr std::uint64_t kLines = 1u << 12;
constexpr std::uint64_t kLineBytes = 64;

/** One trace configuration. */
struct TraceCase
{
    unsigned slices;
    unsigned sets;
    unsigned ways;
    std::uint64_t seed;
};

/**
 * gtest prints the parameter into each ctest name. Without this it
 * prints the struct's raw bytes, padding included, and the names
 * change from build to build.
 */
void
PrintTo(const TraceCase &c, std::ostream *os)
{
    *os << "slices=" << c.slices << " sets=" << c.sets
        << " ways=" << c.ways << " seed=" << c.seed;
}

class LlcBatchEquivalence : public testing::TestWithParam<TraceCase>
{
};

void
configure(SlicedLlc &llc)
{
    // Confined CLOS for core 0, full mask for core 1, a chip-wide
    // DDIO mask plus a per-device override, so the trace exercises
    // mask-restricted victim choice on every path.
    const unsigned ways = llc.geometry().num_ways;
    llc.setClosMask(1, WayMask::fromRange(0, std::max(1u, ways / 2)));
    llc.assocCoreClos(0, 1);
    llc.assocCoreRmid(0, 3);
    llc.assocCoreRmid(1, 4);
    const unsigned ddio_ways = std::max(1u, ways / 4);
    llc.setDdioMask(WayMask::fromRange(ways - ddio_ways, ddio_ways));
    if (ways >= 3)
        llc.setDeviceDdioMask(1, WayMask::fromRange(ways - 3, 2));
}

void
expectSameObservableState(const SlicedLlc &a, const SlicedLlc &b)
{
    for (unsigned s = 0; s < a.geometry().num_slices; ++s) {
        const auto &ca = a.sliceCounters(s);
        const auto &cb = b.sliceCounters(s);
        EXPECT_EQ(ca.lookups, cb.lookups) << "slice " << s;
        EXPECT_EQ(ca.ddio_hits, cb.ddio_hits) << "slice " << s;
        EXPECT_EQ(ca.ddio_misses, cb.ddio_misses) << "slice " << s;
    }
    for (CoreId c = 0; c < 2; ++c) {
        EXPECT_EQ(a.coreCounters(c).llc_refs, b.coreCounters(c).llc_refs);
        EXPECT_EQ(a.coreCounters(c).llc_misses,
                  b.coreCounters(c).llc_misses);
    }
    for (unsigned r = 0; r < SlicedLlc::numRmids; ++r)
        EXPECT_EQ(a.rmidLines(r), b.rmidLines(r)) << "rmid " << r;
    EXPECT_EQ(a.totalWritebacks(), b.totalWritebacks());
    // The full directory: equality here means every allocation chose
    // the same way and every eviction chose the same victim.
    for (std::uint64_t line = 0; line < kLines; ++line) {
        const Addr addr = line * kLineBytes;
        ASSERT_EQ(a.isPresent(addr), b.isPresent(addr))
            << "line " << line;
    }
}

TEST_P(LlcBatchEquivalence, BatchedPathsMatchScalarExactly)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    geom.line_bytes = kLineBytes;

    SlicedLlc scalar(geom, 2);
    SlicedLlc batched(geom, 2);
    configure(scalar);
    configure(batched);

    Rng rng(param.seed);
    std::vector<CoreOp> ops;
    for (int segment = 0; segment < 3000; ++segment) {
        const double kind = rng.uniform();
        if (kind < 0.5) {
            // Core batch: 1..16 mixed demand/writeback ops from one
            // core, scalar one-by-one vs one accessBatch() call.
            const CoreId core = static_cast<CoreId>(rng.below(2));
            const std::size_t n = 1 + rng.below(16);
            ops.clear();
            for (std::size_t i = 0; i < n; ++i) {
                CoreOp op;
                op.addr = rng.below(kLines) * kLineBytes;
                const double t = rng.uniform();
                if (t < 0.2)
                    op.writeback = true;
                else
                    op.type = t < 0.6 ? AccessType::Read
                                      : AccessType::Write;
                ops.push_back(op);
            }

            BatchCounts expect;
            std::vector<AccessResult> ref;
            for (const auto &op : ops) {
                const auto r =
                    op.writeback
                        ? scalar.writebackFromCore(core, op.addr)
                        : scalar.coreAccess(core, op.addr, op.type);
                ref.push_back(r);
                if (!op.writeback) {
                    expect.demand_hits += r.hit;
                    expect.demand_misses += !r.hit;
                }
                expect.writebacks += r.writeback;
            }

            BatchCounts got;
            batched.accessBatch(core, ops.data(), ops.size(), got);
            for (std::size_t i = 0; i < ops.size(); ++i) {
                ASSERT_EQ(ops[i].hit, ref[i].hit) << "op " << i;
                ASSERT_EQ(ops[i].victim_writeback, ref[i].writeback)
                    << "op " << i;
            }
            EXPECT_EQ(got.demand_hits, expect.demand_hits);
            EXPECT_EQ(got.demand_misses, expect.demand_misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        } else if (kind < 0.8) {
            // Inbound DMA range vs per-line ddioWrite().
            const std::uint32_t lines = 1 + rng.below(8);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            const DeviceId dev = static_cast<DeviceId>(rng.below(2));
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r = scalar.ddioWrite(
                    (first + i) * kLineBytes, dev);
                expect.hits += r.hit;
                expect.misses += !r.hit;
                expect.writebacks += r.writeback;
            }
            DmaCounts got;
            batched.ddioWriteRange(first * kLineBytes, lines, dev,
                                   got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        } else {
            // Outbound DMA range vs per-line deviceRead().
            const std::uint32_t lines = 1 + rng.below(8);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            const DeviceId dev = static_cast<DeviceId>(rng.below(2));
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r = scalar.deviceRead(
                    (first + i) * kLineBytes, dev);
                expect.hits += r.hit;
                expect.misses += !r.hit;
            }
            DmaCounts got;
            batched.deviceReadRange(first * kLineBytes, lines, dev,
                                    got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
        }

        // Periodic deep compare so a divergence is caught near the
        // segment that introduced it, not 3000 segments later.
        if (segment % 500 == 499)
            expectSameObservableState(scalar, batched);
    }
    expectSameObservableState(scalar, batched);
}

TEST_P(LlcBatchEquivalence, BatchedPathsMatchWithDdioDisabled)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.num_slices = param.slices;
    geom.sets_per_slice = param.sets;
    geom.num_ways = param.ways;
    geom.line_bytes = kLineBytes;

    SlicedLlc scalar(geom, 2);
    SlicedLlc batched(geom, 2);
    configure(scalar);
    configure(batched);
    scalar.setDdioEnabled(false);
    batched.setDdioEnabled(false);

    Rng rng(param.seed ^ 0x5eedf00dull);
    for (int segment = 0; segment < 500; ++segment) {
        if (rng.uniform() < 0.5) {
            const CoreId core = static_cast<CoreId>(rng.below(2));
            const Addr addr = rng.below(kLines) * kLineBytes;
            scalar.coreAccess(core, addr, AccessType::Write);
            CoreOp op;
            op.addr = addr;
            op.type = AccessType::Write;
            BatchCounts counts;
            batched.accessBatch(core, &op, 1, counts);
        } else {
            // DDIO-off writes invalidate instead of allocating; the
            // range path must do the same per line.
            const std::uint32_t lines = 1 + rng.below(4);
            const std::uint64_t first =
                rng.below(kLines - lines + 1);
            DmaCounts expect;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const auto r =
                    scalar.ddioWrite((first + i) * kLineBytes, 0);
                expect.hits += r.hit;
                expect.misses += !r.hit;
                expect.writebacks += r.writeback;
            }
            DmaCounts got;
            batched.ddioWriteRange(first * kLineBytes, lines, 0, got);
            EXPECT_EQ(got.hits, expect.hits);
            EXPECT_EQ(got.misses, expect.misses);
            EXPECT_EQ(got.writebacks, expect.writebacks);
        }
    }
    expectSameObservableState(scalar, batched);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LlcBatchEquivalence,
    testing::Values(TraceCase{1, 64, 4, 1},
                    TraceCase{4, 128, 11, 2},
                    TraceCase{8, 64, 16, 3},
                    TraceCase{2, 32, 12, 4}),
    [](const testing::TestParamInfo<TraceCase> &tpi) {
        return "s" + std::to_string(tpi.param.slices) + "x" +
               std::to_string(tpi.param.sets) + "x" +
               std::to_string(tpi.param.ways);
    });

} // namespace
} // namespace iat::cache
