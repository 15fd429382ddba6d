/**
 * @file
 * CorunWorld implementation.
 */

#include "scenarios/corun.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/units.hh"

namespace iat::scenarios {

namespace {

/** Read fraction Redis serves for a YCSB mix (scans read values). */
double
redisReadFraction(char mix_id)
{
    const auto &mix = wl::ycsbWorkload(mix_id);
    return mix.read + mix.scan + 0.5 * mix.rmw;
}

} // namespace

CorunWorld::CorunWorld(sim::Platform &platform,
                       const CorunConfig &cfg)
    : World(platform), cfg_(cfg)
{
    IAT_ASSERT(platform.config().num_cores >= 7,
               "co-run world needs seven cores");
    if (cfg_.net_app == CorunConfig::NetApp::Redis)
        buildRedis();
    else
        buildNfv();
    buildNonNetworking();
}

void
CorunWorld::buildRedis()
{
    // Request stream: GET requests are ~128B, SET requests carry the
    // 1KB record; the generator uses the mix-weighted mean frame so
    // inbound DDIO pressure scales with the update share, as it does
    // for YCSB against a real Redis. Keys are Zipf over the records.
    const double read_frac = redisReadFraction(cfg_.redis_mix);
    net::TrafficConfig traffic;
    traffic.frame_bytes = static_cast<std::uint32_t>(
        128.0 + (1.0 - read_frac) * 1024.0);
    // Default rate sits at ~70% of one Redis core's service capacity
    // so queueing amplifies service-time changes, like the paper's
    // near-saturation YCSB load.
    traffic.rate_pps =
        cfg_.redis_rate_pps > 0.0 ? cfg_.redis_rate_pps : 6e5;
    traffic.num_flows = cfg_.redis_records;
    traffic.flow_dist = net::FlowDistribution::Zipfian;

    tables_ = std::make_shared<wl::VSwitchTables>(
        platform_, 1 << 16);

    for (unsigned n = 0; n < 2; ++n) {
        nics_.push_back(std::make_unique<net::NicQueue>(
            platform_, static_cast<cache::DeviceId>(n),
            "nic" + std::to_string(n), traffic, cfg_.ring_entries,
            cfg_.pool_factor, cfg_.seed + n));
        ovs_handlers_.push_back(std::make_unique<wl::VSwitchHandler>(
            platform_, static_cast<cache::CoreId>(n), tables_));
    }

    // Two Redis servers on cores 2 and 3, one behind each NIC.
    for (unsigned r = 0; r < 2; ++r) {
        srv_rx_.push_back(std::make_unique<net::Ring>(
            cfg_.ring_entries, "redis" + std::to_string(r) + ".rx"));
        srv_tx_.push_back(std::make_unique<net::Ring>(
            cfg_.ring_entries, "redis" + std::to_string(r) + ".tx"));
        srv_pools_.push_back(std::make_unique<net::BufferPool>(
            platform_.addressSpace(),
            "redis" + std::to_string(r) + ".rxp",
            static_cast<std::uint32_t>(cfg_.ring_entries *
                                       cfg_.pool_factor),
            2048));
        srv_tx_pools_.push_back(std::make_unique<net::BufferPool>(
            platform_.addressSpace(),
            "redis" + std::to_string(r) + ".txp",
            static_cast<std::uint32_t>(cfg_.ring_entries *
                                       cfg_.pool_factor),
            2048));

        wl::RedisHandler::Config rcfg;
        rcfg.record_count = cfg_.redis_records;
        rcfg.read_fraction = redisReadFraction(cfg_.redis_mix);
        redis_handlers_.push_back(std::make_unique<wl::RedisHandler>(
            platform_, static_cast<cache::CoreId>(2 + r),
            "redis" + std::to_string(r), rcfg, *srv_tx_pools_[r],
            wl::ForwardPort{srv_tx_[r].get(), nullptr},
            cfg_.seed + 20 + r));

        ovs_handlers_[r]->addInboundRule(
            static_cast<cache::DeviceId>(r),
            {srv_rx_[r].get(), srv_pools_[r].get()});
        ovs_handlers_[r]->addOutboundRule(
            static_cast<cache::DeviceId>(r), nics_[r].get());
    }

    for (unsigned n = 0; n < 2; ++n) {
        pipeline_.addSource(nics_[n].get());
        pipeline_.addStage(static_cast<cache::CoreId>(n),
                           *ovs_handlers_[n],
                           {&nics_[n]->rxRing(), srv_tx_[n].get()},
                           "ovs" + std::to_string(n));
        pipeline_.addStage(static_cast<cache::CoreId>(2 + n),
                           *redis_handlers_[n], {srv_rx_[n].get()},
                           "redis" + std::to_string(n));
    }

    // Tenant record: OVS + Redis share one three-way CAT group
    // ("OVS and two Redis containers share three LLC ways").
    core::TenantSpec net;
    net.name = "net-group";
    net.cores = {0, 1, 2, 3};
    net.is_io = true;
    net.priority = core::TenantPriority::SoftwareStack;
    net.initial_ways = 3;
    registry_.add(net);
}

void
CorunWorld::buildNfv()
{
    // Four VLANs at 20 Gb/s of 1.5 KB frames each; VF i sits on
    // physical port i/2.
    net::TrafficConfig traffic;
    traffic.frame_bytes = 1500;
    traffic.rate_pps = packetRateForLineRate(20e9, 1500);
    traffic.num_flows = cfg_.nfv_flows;
    traffic.flow_dist = net::FlowDistribution::Uniform;

    for (unsigned v = 0; v < 4; ++v) {
        nics_.push_back(std::make_unique<net::NicQueue>(
            platform_, static_cast<cache::DeviceId>(v / 2),
            "vf" + std::to_string(v), traffic, cfg_.ring_entries,
            cfg_.pool_factor, cfg_.seed + v));
        nfv_handlers_.push_back(std::make_unique<wl::NfChainHandler>(
            platform_, static_cast<cache::CoreId>(v),
            "chain" + std::to_string(v), cfg_.nfv_flows,
            wl::ForwardPort{nullptr, nics_.back().get()}));
        pipeline_.addSource(nics_.back().get());
        pipeline_.addStage(static_cast<cache::CoreId>(v),
                           *nfv_handlers_[v],
                           {&nics_[v]->rxRing()},
                           "chain" + std::to_string(v));
    }

    core::TenantSpec net;
    net.name = "nfv-group";
    net.cores = {0, 1, 2, 3};
    net.is_io = true;
    net.priority = core::TenantPriority::PerformanceCritical;
    net.initial_ways = 3;
    registry_.add(net);
}

void
CorunWorld::buildNonNetworking()
{
    const cache::CoreId pc_core = 4;
    if (cfg_.pc_app == "rocksdb") {
        wl::KvStoreConfig kcfg; // paper: 10K x 1KB, memtable only
        rocksdb_ = std::make_unique<wl::KvStoreWorkload>(
            platform_, pc_core, "rocksdb", kcfg,
            wl::ycsbWorkload(cfg_.rocksdb_mix), cfg_.seed + 30);
    } else {
        spec_ = std::make_unique<wl::SpecWorkload>(
            platform_, pc_core, wl::specProfile(cfg_.pc_app),
            cfg_.seed + 30);
    }

    xmems_.push_back(std::make_unique<wl::XMemWorkload>(
        platform_, 5, "xmem-1m", 1 * MiB, 1 * MiB, cfg_.seed + 40));
    xmems_.push_back(std::make_unique<wl::XMemWorkload>(
        platform_, 6, "xmem-10m", 10 * MiB, 10 * MiB,
        cfg_.seed + 41));

    core::TenantSpec pc;
    pc.name = cfg_.pc_app;
    pc.cores = {pc_core};
    pc.is_io = false;
    pc.priority = core::TenantPriority::PerformanceCritical;
    pc.initial_ways = 2;
    registry_.add(pc);

    const char *names[2] = {"xmem-1m", "xmem-10m"};
    for (unsigned i = 0; i < 2; ++i) {
        core::TenantSpec spec;
        spec.name = names[i];
        spec.cores = {static_cast<cache::CoreId>(5 + i)};
        spec.is_io = false;
        spec.priority = core::TenantPriority::BestEffort;
        spec.initial_ways = 2;
        registry_.add(spec);
    }
}

void
CorunWorld::attach(sim::Engine &engine)
{
    World::attach(engine);
    if (spec_)
        engine.add(spec_.get());
    if (rocksdb_)
        engine.add(rocksdb_.get());
    for (auto &x : xmems_)
        engine.add(x.get());
}

void
CorunWorld::applyBaselinePlacement(Rng &rng)
{
    auto &pqos = platform_.pqos();

    // Networking group: ways 0-2 (explicitly no DDIO overlap).
    pqos.l3caSet(1, cache::WayMask::fromRange(0, 3));
    for (const auto core : registry_[kTenantNet].cores)
        pqos.allocAssocSet(core, 1);
    pqos.monStart(registry_[kTenantNet].cores, 1);

    // Non-networking tenants: random distinct 2-way slots among
    // {3-4, 5-6, 7-8, 9-10}.
    std::vector<unsigned> slots = {3, 5, 7, 9};
    for (std::size_t i = slots.size(); i > 1; --i)
        std::swap(slots[i - 1], slots[rng.below(i)]);
    for (std::size_t t = 1; t < registry_.size(); ++t) {
        const auto clos = static_cast<cache::ClosId>(t + 1);
        pqos.l3caSet(clos, cache::WayMask::fromRange(
                               slots[t - 1], 2));
        for (const auto core : registry_[t].cores)
            pqos.allocAssocSet(core, clos);
        pqos.monStart(registry_[t].cores,
                      static_cast<cache::RmidId>(t + 1));
    }
}

void
CorunWorld::applyDeterministicPlacement(int variant)
{
    IAT_ASSERT(variant >= 0 && variant <= 2,
               "placement variant out of range");
    auto &pqos = platform_.pqos();
    pqos.l3caSet(1, cache::WayMask::fromRange(0, 3));
    for (const auto core : registry_[kTenantNet].cores)
        pqos.allocAssocSet(core, 1);
    pqos.monStart(registry_[kTenantNet].cores, 1);

    // Slot start ways for tenants {pc, be-small, be-large}.
    unsigned slots[3] = {3, 5, 7};        // variant 0: 9-10 idle
    if (variant == 1) {
        slots[0] = 9;                     // PC app on DDIO's ways
        slots[1] = 3;
        slots[2] = 5;
    } else if (variant == 2) {
        slots[0] = 3;
        slots[1] = 5;
        slots[2] = 9;                     // 10MB X-Mem on DDIO
    }
    for (std::size_t t = 1; t < registry_.size(); ++t) {
        const auto clos = static_cast<cache::ClosId>(t + 1);
        pqos.l3caSet(clos,
                     cache::WayMask::fromRange(slots[t - 1], 2));
        for (const auto core : registry_[t].cores)
            pqos.allocAssocSet(core, clos);
        pqos.monStart(registry_[t].cores,
                      static_cast<cache::RmidId>(t + 1));
    }
}

void
CorunWorld::setNetworkingActive(bool active)
{
    for (auto &nic : nics_)
        nic->setActive(active);
}

void
CorunWorld::setBackgroundActive(bool active)
{
    for (auto &x : xmems_)
        x->setActive(active);
}

void
CorunWorld::setTenantActive(std::size_t t, bool active)
{
    switch (t) {
      case kTenantNet:
        setNetworkingActive(active);
        break;
      case kTenantPcApp:
        if (spec_)
            spec_->setActive(active);
        if (rocksdb_)
            rocksdb_->setActive(active);
        break;
      case kTenantBeSmall:
      case kTenantBeLarge: {
        const std::size_t x = t - kTenantBeSmall;
        if (x < xmems_.size())
            xmems_[x]->setActive(active);
        break;
      }
      default:
        break;
    }
}

std::uint64_t
CorunWorld::pcAppProgress() const
{
    const std::uint64_t now =
        spec_ ? spec_->instructionsDone() : rocksdb_->opsCompleted();
    return now - pc_progress_base_;
}

core::TenantModel
CorunWorld::model() const
{
    return cfg_.net_app == CorunConfig::NetApp::Redis
               ? core::TenantModel::Aggregation
               : core::TenantModel::Slicing;
}

std::uint64_t
CorunWorld::delivered() const
{
    if (cfg_.net_app != CorunConfig::NetApp::Redis)
        return txPackets();
    std::uint64_t total = 0;
    for (const auto &handler : redis_handlers_)
        total += handler->responsesSent();
    return total - redis_responses_base_;
}

void
CorunWorld::resetStats()
{
    World::resetStats();
    if (rocksdb_) {
        rocksdb_->resetKindStats();
        pc_progress_base_ = 0;
    } else {
        pc_progress_base_ = spec_->instructionsDone();
    }
    redis_responses_base_ = 0;
    for (const auto &handler : redis_handlers_)
        redis_responses_base_ += handler->responsesSent();
    for (auto &x : xmems_)
        x->resetStats();
}

} // namespace iat::scenarios
