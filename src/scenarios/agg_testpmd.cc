/**
 * @file
 * AggTestPmdWorld implementation.
 */

#include "scenarios/agg_testpmd.hh"

#include "util/logging.hh"

namespace iat::scenarios {

namespace {
constexpr unsigned kNumNics = 2; // two XL710 ports (SS VI-A)
} // namespace

AggTestPmdWorld::AggTestPmdWorld(sim::Platform &platform,
                                 const AggTestPmdConfig &cfg)
    : World(platform), cfg_(cfg)
{
    IAT_ASSERT(cfg_.num_containers >= 1, "need at least one tenant");
    IAT_ASSERT(2 + cfg_.num_containers <= platform.config().num_cores,
               "not enough cores for OVS + containers");

    net::TrafficConfig traffic;
    traffic.frame_bytes = cfg_.frame_bytes;
    traffic.rate_pps = cfg_.rate_pps > 0.0
                           ? cfg_.rate_pps
                           : net::lineRatePps40G(cfg_.frame_bytes);
    traffic.num_flows = cfg_.flows;
    traffic.flow_dist = cfg_.flow_dist;

    for (unsigned n = 0; n < kNumNics; ++n) {
        nics_.push_back(std::make_unique<net::NicQueue>(
            platform_, static_cast<cache::DeviceId>(n),
            "nic" + std::to_string(n), traffic, cfg_.ring_entries,
            cfg_.pool_factor, cfg_.seed + n));
    }

    tables_ = std::make_shared<wl::VSwitchTables>(
        platform_,
        std::max({cfg_.flows, cfg_.max_flows,
                  std::uint64_t{1024}}));

    // OVS poll threads on cores 0 and 1, one per NIC (paper: OVS on
    // two dedicated cores). Containers start at core 2.
    for (unsigned n = 0; n < kNumNics; ++n) {
        ovs_handlers_.push_back(std::make_unique<wl::VSwitchHandler>(
            platform_, static_cast<cache::CoreId>(n), tables_));
        ovs_cores_.push_back(static_cast<cache::CoreId>(n));
    }

    for (unsigned c = 0; c < cfg_.num_containers; ++c) {
        tenant_rx_.push_back(std::make_unique<net::Ring>(
            cfg_.ring_entries, "c" + std::to_string(c) + ".rx"));
        tenant_tx_.push_back(std::make_unique<net::Ring>(
            cfg_.ring_entries, "c" + std::to_string(c) + ".tx"));
        tenant_pools_.push_back(std::make_unique<net::BufferPool>(
            platform_.addressSpace(), "c" + std::to_string(c) +
            ".pool",
            static_cast<std::uint32_t>(cfg_.ring_entries *
                                       cfg_.pool_factor),
            2048));
        const unsigned nic = c % kNumNics;
        ovs_handlers_[nic]->addInboundRule(
            static_cast<cache::DeviceId>(nic),
            {tenant_rx_.back().get(), tenant_pools_.back().get()});
    }
    for (unsigned n = 0; n < kNumNics; ++n) {
        ovs_handlers_[n]->addOutboundRule(
            static_cast<cache::DeviceId>(n), nics_[n].get());
    }

    // testpmd handlers bounce into their tx ring toward OVS.
    for (unsigned c = 0; c < cfg_.num_containers; ++c) {
        pmd_handlers_.push_back(std::make_unique<wl::TestPmdHandler>(
            platform_, static_cast<cache::CoreId>(2 + c),
            wl::ForwardPort{tenant_tx_[c].get(), nullptr}));
    }

    for (auto &nic : nics_)
        pipeline_.addSource(nic.get());
    for (unsigned n = 0; n < kNumNics; ++n) {
        std::vector<net::Ring *> inputs = {&nics_[n]->rxRing()};
        for (unsigned c = n; c < cfg_.num_containers; c += kNumNics)
            inputs.push_back(tenant_tx_[c].get());
        ovs_stages_.push_back(&pipeline_.addStage(
            static_cast<cache::CoreId>(n), *ovs_handlers_[n],
            std::move(inputs), "ovs" + std::to_string(n)));
    }
    for (unsigned c = 0; c < cfg_.num_containers; ++c) {
        pipeline_.addStage(static_cast<cache::CoreId>(2 + c),
                           *pmd_handlers_[c], {tenant_rx_[c].get()},
                           "pmd" + std::to_string(c));
    }

    // Tenant records (SS IV-A): the stack plus the containers.
    core::TenantSpec ovs;
    ovs.name = "ovs";
    ovs.cores = {0, 1};
    ovs.is_io = true;
    ovs.priority = core::TenantPriority::SoftwareStack;
    ovs.initial_ways = cfg_.ovs_ways;
    registry_.add(ovs);
    for (unsigned c = 0; c < cfg_.num_containers; ++c) {
        core::TenantSpec spec;
        spec.name = "testpmd" + std::to_string(c);
        spec.cores = {static_cast<cache::CoreId>(2 + c)};
        spec.is_io = true;
        spec.priority = core::TenantPriority::BestEffort;
        spec.initial_ways = cfg_.container_ways;
        registry_.add(spec);
    }
}

void
AggTestPmdWorld::setFrameBytes(std::uint32_t bytes)
{
    cfg_.frame_bytes = bytes;
    for (auto &nic : nics_) {
        nic->setFrameBytes(bytes);
        if (cfg_.rate_pps <= 0.0)
            nic->setRate(net::lineRatePps40G(bytes));
    }
}

void
AggTestPmdWorld::setRate(double rate_pps)
{
    cfg_.rate_pps = rate_pps;
    for (auto &nic : nics_) {
        nic->setRate(rate_pps > 0.0
                         ? rate_pps
                         : net::lineRatePps40G(cfg_.frame_bytes));
    }
}

void
AggTestPmdWorld::setFlows(std::uint64_t flows)
{
    cfg_.flows = flows;
    for (auto &nic : nics_)
        nic->setNumFlows(flows);
}

std::uint64_t
AggTestPmdWorld::totalDrops() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->rxStats().totalDrops();
    for (const auto &ring : tenant_rx_)
        total += ring->drops();
    for (const auto &ring : tenant_tx_)
        total += ring->drops();
    for (const auto &handler : ovs_handlers_)
        total += handler->forwardDrops();
    return total;
}

void
AggTestPmdWorld::resetStats()
{
    World::resetStats();
    for (auto &stage : ovs_stages_)
        stage->resetStats();
}

void
AggTestPmdWorld::setTenantActive(std::size_t t, bool active)
{
    if (t == 0) {
        for (auto &nic : nics_)
            nic->setActive(active);
        return;
    }
    if (t - 1 < nics_.size())
        nics_[t - 1]->setActive(active);
}

} // namespace iat::scenarios
