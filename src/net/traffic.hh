/**
 * @file
 * Traffic generation: arrival processes and flow-id draws.
 *
 * The generator models the testbed's pktgen machines: a target
 * offered rate, a frame size, a flow population, and burstiness.
 * Packets leave the generator in bursts of burst_size frames at wire
 * rate; burst gaps are exponentially distributed around the value
 * that meets the offered rate (a Poisson burst process). Bursty
 * arrivals are what make shallow Rx rings overflow at high packet
 * rates (paper SS III-A / Fig 3); burst_size = 1 with zero jitter
 * gives a deterministic, perfectly paced stream for tests.
 */

#ifndef IATSIM_NET_TRAFFIC_HH
#define IATSIM_NET_TRAFFIC_HH

#include <cstdint>
#include <optional>

#include "util/rng.hh"
#include "util/units.hh"
#include "util/zipf.hh"

namespace iat::net {

/** Flow-popularity shapes for generated traffic. */
enum class FlowDistribution { Single, Uniform, Zipfian };

/** One generator's configuration. */
struct TrafficConfig
{
    double rate_pps = 1e6;          ///< offered rate, packets/s
    std::uint32_t frame_bytes = 64; ///< frame size on the wire
    std::uint64_t num_flows = 1;    ///< flow population
    FlowDistribution flow_dist = FlowDistribution::Single;
    double zipf_theta = 0.99;       ///< skew for Zipfian flows
    std::uint32_t burst_size = 32;  ///< frames per burst
    bool jitter = true;             ///< exponential burst gaps
    /** Wire pacing inside a burst; 0 = derive from 40GbE line rate. */
    double wire_rate_pps = 0.0;
};

/** Line rate in packets/s of a 40GbE port at @p frame_bytes. */
double lineRatePps40G(std::uint32_t frame_bytes);

/** Draws arrival times and flow ids for one port. */
class TrafficGen
{
  public:
    TrafficGen(const TrafficConfig &cfg, std::uint64_t seed);

    /** Time of the next frame given the previous one at @p now. */
    double nextGap();

    /** Flow id of the next frame. */
    std::uint64_t nextFlow();

    const TrafficConfig &config() const { return cfg_; }

    /** Change the offered rate mid-run (RFC2544 search, phases). */
    void setRate(double rate_pps);

    /**
     * Change the frame size mid-run (Fig 8 doubles the packet size
     * while the experiment runs); re-derives wire pacing.
     */
    void setFrameBytes(std::uint32_t frame_bytes);

    /**
     * Change the flow population mid-run (Fig 9 grows the flow
     * count while the experiment runs).
     */
    void setNumFlows(std::uint64_t num_flows);

  private:
    TrafficConfig cfg_;
    /** One stream for burst gaps and flow draws, in draw order. */
    Rng rng_;
    /**
     * Zipf normaliser over num_flows, held only while flow_dist is
     * Zipfian: building one sums num_flows pow() terms
     * (ZipfGenerator::zeta), which Single and Uniform draws never read.
     */
    std::optional<ZipfGenerator> zipf_;
    std::uint32_t burst_left_ = 0;
    double wire_gap_;
    double burst_gap_;
};

} // namespace iat::net

#endif // IATSIM_NET_TRAFFIC_HH
