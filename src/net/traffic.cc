/**
 * @file
 * TrafficGen implementation.
 */

#include "net/traffic.hh"

#include <algorithm>

#include "util/logging.hh"

namespace iat::net {

double
lineRatePps40G(std::uint32_t frame_bytes)
{
    return packetRateForLineRate(40e9, frame_bytes);
}

TrafficGen::TrafficGen(const TrafficConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    if (cfg_.flow_dist == FlowDistribution::Zipfian)
        zipf_.emplace(std::max<std::uint64_t>(cfg_.num_flows, 1),
                      cfg_.zipf_theta);
    IAT_ASSERT(cfg_.rate_pps > 0.0, "traffic rate must be positive");
    IAT_ASSERT(cfg_.burst_size >= 1, "burst size must be >= 1");
    const double wire =
        cfg_.wire_rate_pps > 0.0 ? cfg_.wire_rate_pps
                                 : lineRatePps40G(cfg_.frame_bytes);
    // Never pace faster than the wire permits; an offered rate at or
    // above line rate degenerates to back-to-back frames.
    wire_gap_ = 1.0 / wire;
    setRate(cfg_.rate_pps);
}

void
TrafficGen::setFrameBytes(std::uint32_t frame_bytes)
{
    IAT_ASSERT(frame_bytes >= 1, "degenerate frame size");
    cfg_.frame_bytes = frame_bytes;
    if (cfg_.wire_rate_pps <= 0.0)
        wire_gap_ = 1.0 / lineRatePps40G(frame_bytes);
    setRate(cfg_.rate_pps);
}

void
TrafficGen::setNumFlows(std::uint64_t num_flows)
{
    IAT_ASSERT(num_flows >= 1, "need at least one flow");
    cfg_.num_flows = num_flows;
    if (cfg_.flow_dist == FlowDistribution::Single && num_flows > 1)
        cfg_.flow_dist = FlowDistribution::Uniform;
    if (cfg_.flow_dist == FlowDistribution::Zipfian)
        zipf_.emplace(num_flows, cfg_.zipf_theta);
}

void
TrafficGen::setRate(double rate_pps)
{
    IAT_ASSERT(rate_pps > 0.0, "traffic rate must be positive");
    cfg_.rate_pps = rate_pps;
    const double mean_gap = 1.0 / rate_pps;
    // Idle time between bursts: one burst occupies burst_size wire
    // slots plus this gap, so the long-run average meets the offered
    // rate exactly; 0 when the offered rate needs back-to-back
    // bursts (at or above line rate).
    burst_gap_ = std::max(
        0.0, static_cast<double>(cfg_.burst_size) *
                 (mean_gap - wire_gap_));
}

double
TrafficGen::nextGap()
{
    if (burst_left_ > 0) {
        --burst_left_;
        return wire_gap_;
    }
    burst_left_ = cfg_.burst_size - 1;
    if (burst_gap_ <= 0.0)
        return wire_gap_;
    const double gap =
        cfg_.jitter ? rng_.expo(burst_gap_) : burst_gap_;
    return gap + wire_gap_;
}

std::uint64_t
TrafficGen::nextFlow()
{
    switch (cfg_.flow_dist) {
      case FlowDistribution::Single:
        return 0;
      case FlowDistribution::Uniform:
        return rng_.below(std::max<std::uint64_t>(cfg_.num_flows, 1));
      case FlowDistribution::Zipfian:
        return zipf_->nextScrambled(rng_);
    }
    panic("unreachable flow distribution");
}

} // namespace iat::net
