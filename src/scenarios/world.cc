/**
 * @file
 * World implementation.
 */

#include "scenarios/world.hh"

namespace iat::scenarios {

void
World::attach(sim::Engine &engine)
{
    engine.add(&pipeline_);
}

std::uint64_t
World::txPackets() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->txStats().tx_packets;
    return total;
}

std::uint64_t
World::rxPackets() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->rxStats().rx_packets;
    return total;
}

LatencyHistogram
World::latency() const
{
    LatencyHistogram merged;
    for (const auto &nic : nics_)
        merged.merge(nic->latency());
    return merged;
}

void
World::resetStats()
{
    for (auto &nic : nics_)
        nic->resetStats();
}

} // namespace iat::scenarios
