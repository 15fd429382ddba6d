/**
 * @file
 * STREAM-style bandwidth workload (McCalpin's triad).
 *
 * Useful as a memory-bandwidth antagonist in consolidation
 * experiments and as a calibration load for the DRAM model: each
 * operation streams a[i] = b[i] + s*c[i] across three arrays with
 * unit stride and no reuse, so throughput is bounded by the memory
 * system rather than the LLC -- the opposite end of the sensitivity
 * spectrum from X-Mem's pointer chase.
 */

#ifndef IATSIM_WL_STREAM_HH
#define IATSIM_WL_STREAM_HH

#include "sim/address_space.hh"
#include "wl/workload.hh"

namespace iat::wl {

/** Triad streamer; one op = one cache line of each array. */
class StreamWorkload : public MemWorkload
{
  public:
    /**
     * @param array_bytes  Size of each of the three arrays; the
     *                     total footprint is 3x this.
     */
    StreamWorkload(sim::Platform &platform, cache::CoreId core,
                   std::string name, std::uint64_t array_bytes);

    /** Effective triad bandwidth over the recorded window (B/s):
     *  three lines move per op (two reads + one write). */
    double bandwidthBytesPerSec() const;

  protected:
    double step(double now) override;

  private:
    std::uint64_t lines_per_array_;
    sim::AddressSpace::Region a_;
    sim::AddressSpace::Region b_;
    sim::AddressSpace::Region c_;
    std::uint64_t index_ = 0;
};

} // namespace iat::wl

#endif // IATSIM_WL_STREAM_HH
