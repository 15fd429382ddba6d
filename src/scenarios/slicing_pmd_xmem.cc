/**
 * @file
 * SlicingPmdXmemWorld implementation.
 */

#include "scenarios/slicing_pmd_xmem.hh"

#include "util/logging.hh"

namespace iat::scenarios {

SlicingPmdXmemWorld::SlicingPmdXmemWorld(
    sim::Platform &platform, const SlicingPmdXmemConfig &cfg)
    : World(platform), cfg_(cfg)
{
    IAT_ASSERT(platform.config().num_cores >= 5,
               "world needs five cores");

    net::TrafficConfig traffic;
    traffic.frame_bytes = cfg_.frame_bytes;
    traffic.rate_pps = cfg_.rate_pps > 0.0
                           ? cfg_.rate_pps
                           : net::lineRatePps40G(cfg_.frame_bytes);

    for (unsigned i = 0; i < 2; ++i) {
        nics_.push_back(std::make_unique<net::NicQueue>(
            platform_, static_cast<cache::DeviceId>(i),
            "vf" + std::to_string(i), traffic, cfg_.ring_entries,
            cfg_.pool_factor, cfg_.seed + i));
        pmd_handlers_.push_back(std::make_unique<wl::TestPmdHandler>(
            platform_, static_cast<cache::CoreId>(i),
            wl::ForwardPort{nullptr, nics_.back().get()}));
        pipeline_.addSource(nics_.back().get());
        pipeline_.addStage(static_cast<cache::CoreId>(i),
                           *pmd_handlers_.back(),
                           {&nics_.back()->rxRing()},
                           "pmd" + std::to_string(i));
    }

    // X-Mem containers 2 (BE), 3 (BE), 4 (PC) on cores 2..4.
    const char *names[3] = {"xmem2", "xmem3", "xmem4"};
    for (unsigned i = 0; i < 3; ++i) {
        xmems_.push_back(std::make_unique<wl::XMemWorkload>(
            platform_, static_cast<cache::CoreId>(2 + i), names[i],
            cfg_.xmem_initial_bytes, cfg_.xmem_max_bytes,
            cfg_.seed + 10 + i));
    }

    // Tenant records. The two testpmd containers share one CAT
    // group in the paper ("share three dedicated LLC ways"), so
    // they form one tenant entry.
    core::TenantSpec pmd;
    pmd.name = "pmd-pair";
    pmd.cores = {0, 1};
    pmd.is_io = true;
    pmd.priority = core::TenantPriority::PerformanceCritical;
    pmd.initial_ways = 3;
    registry_.add(pmd);
    for (unsigned i = 0; i < 3; ++i) {
        core::TenantSpec spec;
        spec.name = names[i];
        spec.cores = {static_cast<cache::CoreId>(2 + i)};
        spec.is_io = false;
        spec.priority = i == 2
                            ? core::TenantPriority::PerformanceCritical
                            : core::TenantPriority::BestEffort;
        spec.initial_ways = 2;
        registry_.add(spec);
    }
}

void
SlicingPmdXmemWorld::attach(sim::Engine &engine)
{
    World::attach(engine);
    for (auto &x : xmems_)
        engine.add(x.get());
}

void
SlicingPmdXmemWorld::setFrameBytes(std::uint32_t bytes)
{
    cfg_.frame_bytes = bytes;
    for (auto &vf : nics_) {
        vf->setFrameBytes(bytes);
        if (cfg_.rate_pps <= 0.0)
            vf->setRate(net::lineRatePps40G(bytes));
    }
}

void
SlicingPmdXmemWorld::setTenantActive(std::size_t t, bool active)
{
    if (t == kTenantPmd) {
        for (auto &vf : nics_)
            vf->setActive(active);
        return;
    }
    if (t - 1 < xmems_.size())
        xmems_[t - 1]->setActive(active);
}

} // namespace iat::scenarios
