/**
 * @file
 * StreamWorkload implementation.
 */

#include "wl/stream.hh"

#include "util/logging.hh"
#include "util/units.hh"

namespace iat::wl {

namespace {
/** FP math + index update per line of triad. */
constexpr double kComputeCycles = 8.0;
constexpr std::uint64_t kInstructionsPerOp = 40;
} // namespace

StreamWorkload::StreamWorkload(sim::Platform &platform,
                               cache::CoreId core, std::string name,
                               std::uint64_t array_bytes)
    : MemWorkload(platform, core, name),
      lines_per_array_(array_bytes / cacheLineBytes),
      a_(platform.addressSpace().alloc(array_bytes, name + ".a")),
      b_(platform.addressSpace().alloc(array_bytes, name + ".b")),
      c_(platform.addressSpace().alloc(array_bytes, name + ".c"))
{
    IAT_ASSERT(lines_per_array_ >= 1,
               "stream arrays need at least one line");
}

double
StreamWorkload::step(double /*now*/)
{
    const std::uint64_t line = index_;
    index_ = (index_ + 1) % lines_per_array_;

    // a[i] = b[i] + s * c[i]: two streaming reads, one streaming
    // write, fully overlappable (bulk MLP). One batched LLC walk
    // covers all three operands.
    const sim::Platform::TouchSpan spans[3] = {
        {b_.lineAddr(line), cacheLineBytes, cache::AccessType::Read},
        {c_.lineAddr(line), cacheLineBytes, cache::AccessType::Read},
        {a_.lineAddr(line), cacheLineBytes, cache::AccessType::Write},
    };
    double lat[3];
    platform().coreTouchBulk(core(), spans, 3, lat);
    double cycles = kComputeCycles;
    cycles += lat[0];
    cycles += lat[1];
    cycles += lat[2];
    platform().retire(core(), kInstructionsPerOp);
    recordLatency(cycles / platform().config().core_hz);
    return cycles;
}

double
StreamWorkload::bandwidthBytesPerSec() const
{
    const double lat = opLatency().mean();
    return lat > 0.0 ? 3.0 * cacheLineBytes / lat : 0.0;
}

} // namespace iat::wl
