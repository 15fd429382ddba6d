/**
 * @file
 * X-Mem stand-in: the random-read memory characterization
 * micro-benchmark the paper uses for the Latent Contender experiments
 * (SS III-B, Figs 4/10/11).
 *
 * Each operation is one dependent (pointer-chase) load at a uniformly
 * random line of the working set, plus a small fixed compute cost, so
 * average op latency tracks the memory hierarchy exactly and
 * throughput is latency-bound -- matching X-Mem's random-read mode.
 * The working set can be resized mid-run (Fig 10 grows container 4
 * from 2 MB to 10 MB at t=5s); the region is pre-allocated at
 * max_bytes and resizing only changes the addressable window.
 */

#ifndef IATSIM_WL_XMEM_HH
#define IATSIM_WL_XMEM_HH

#include "sim/address_space.hh"
#include "util/rng.hh"
#include "wl/workload.hh"

namespace iat::wl {

/** Random-read X-Mem model. */
class XMemWorkload : public MemWorkload
{
  public:
    /**
     * @param working_set_bytes  Initial working set.
     * @param max_bytes          Upper bound for later resizes.
     */
    XMemWorkload(sim::Platform &platform, cache::CoreId core,
                 std::string name, std::uint64_t working_set_bytes,
                 std::uint64_t max_bytes, std::uint64_t seed);

    /** Grow/shrink the working set (phase change). */
    void setWorkingSet(std::uint64_t bytes);
    std::uint64_t workingSet() const { return ws_bytes_; }

    /** Average access latency over the recorded window, seconds. */
    double
    avgLatencySeconds() const
    {
        return opLatency().mean();
    }

    /** Read throughput over ops in the window: bytes per op / lat. */
    double avgThroughputBytesPerSec() const;

  protected:
    double step(double now) override;

  private:
    sim::AddressSpace::Region region_;
    std::uint64_t ws_bytes_;
    std::uint64_t ws_lines_;
    Rng rng_;
};

} // namespace iat::wl

#endif // IATSIM_WL_XMEM_HH
