/**
 * @file
 * Baseline policy implementations.
 */

#include "core/baselines.hh"

#include <algorithm>
#include <numeric>

#include "core/shuffle.hh"
#include "util/logging.hh"

namespace iat::core {

namespace {

cache::ClosId
tenantClos(std::size_t t)
{
    return static_cast<cache::ClosId>(t + 1);
}

} // namespace

// ---------------------------------------------------------------------
// Static layout and StaticPolicy

std::vector<cache::WayMask>
applyStaticLayout(rdt::PqosSystem &pqos, const TenantRegistry &registry)
{
    const auto order = computeShuffleOrder(registry.tenants(), {}, {});
    return applyStaticLayout(pqos, registry, order);
}

std::vector<cache::WayMask>
applyStaticLayout(rdt::PqosSystem &pqos, const TenantRegistry &registry,
                  const std::vector<std::size_t> &order)
{
    WayAllocator alloc(pqos.l3NumWays(), pqos.ddioGetWays().count());
    std::vector<unsigned> ways;
    for (const auto &spec : registry.tenants())
        ways.push_back(spec.initial_ways);
    alloc.setTenants(ways);
    alloc.setOrder(order);

    std::vector<cache::WayMask> masks;
    for (std::size_t t = 0; t < registry.size(); ++t) {
        const auto mask = alloc.tenantMask(t);
        pqos.l3caSet(tenantClos(t), mask);
        for (const auto core : registry[t].cores)
            pqos.allocAssocSet(core, tenantClos(t));
        // One RMID per tenant so experiments can monitor the
        // baseline with the same groups IAT would use.
        pqos.monStart(registry[t].cores,
                      static_cast<cache::RmidId>(t + 1));
        masks.push_back(mask);
    }
    return masks;
}

StaticPolicy::StaticPolicy(rdt::PqosSystem &pqos,
                           TenantRegistry &registry)
    : pqos_(pqos), registry_(registry)
{
    registry_.consumeDirty();
    applyStaticLayout(pqos_, registry_);
}

void
StaticPolicy::tick(double /*now*/)
{
    if (registry_.consumeDirty())
        applyStaticLayout(pqos_, registry_);
}

// ---------------------------------------------------------------------
// CoreOnlyPolicy

CoreOnlyPolicy::CoreOnlyPolicy(rdt::PqosSystem &pqos,
                               TenantRegistry &registry,
                               const IatParams &params)
    : pqos_(pqos), registry_(registry), params_(params),
      monitor_(pqos), alloc_(pqos.l3NumWays())
{
}

void
CoreOnlyPolicy::setup()
{
    const auto &specs = registry_.tenants();
    initial_ways_.clear();
    for (const auto &spec : specs)
        initial_ways_.push_back(spec.initial_ways);
    alloc_.setTenants(initial_ways_);
    for (std::size_t t = 0; t < specs.size(); ++t) {
        for (const auto core : specs[t].cores)
            pqos_.allocAssocSet(core, tenantClos(t));
    }
    programmed_.assign(specs.size(), cache::WayMask{});
    applyMasks();
    monitor_.attach(registry_);
}

void
CoreOnlyPolicy::applyMasks()
{
    for (std::size_t t = 0; t < programmed_.size(); ++t) {
        const auto mask = alloc_.tenantMask(t);
        if (mask == programmed_[t])
            continue;
        // A transiently rejected write leaves programmed_ stale so
        // the next tick's applyMasks() retries it.
        if (pqos_.l3caSet(tenantClos(t), mask))
            programmed_[t] = mask;
    }
    // No ddioSetWays / ddioPoll calls anywhere in this policy: it is
    // blind to the I/O by construction.
}

void
CoreOnlyPolicy::tick(double /*now*/)
{
    if (registry_.consumeDirty()) {
        setup();
        return;
    }
    const auto sample = monitor_.poll(params_.interval_seconds);

    // Grow the tenant with the largest rising miss rate whose IPC
    // dropped; reclaim from tenants whose miss rate collapsed.
    std::size_t grow = programmed_.size();
    double best = 0.01; // at least one percentage point
    for (std::size_t t = 0; t < sample.tenants.size(); ++t) {
        const auto &s = sample.tenants[t];
        if (s.d_miss_rate > best &&
            s.d_ipc < -params_.threshold_stable) {
            best = s.d_miss_rate;
            grow = t;
        }
    }
    if (grow < programmed_.size())
        alloc_.growTenant(grow);

    for (std::size_t t = 0; t < sample.tenants.size(); ++t) {
        const auto &s = sample.tenants[t];
        if (alloc_.tenantWays(t) > initial_ways_[t] &&
            s.d_miss_rate < -0.01 && t != grow) {
            alloc_.shrinkTenant(t);
            break; // one reclaim per interval, like IAT
        }
    }
    applyMasks();
}

// ---------------------------------------------------------------------
// IoIsolationPolicy

IoIsolationPolicy::IoIsolationPolicy(rdt::PqosSystem &pqos,
                                     TenantRegistry &registry,
                                     const IatParams &params,
                                     std::vector<std::size_t> order)
    : pqos_(pqos), registry_(registry), params_(params),
      monitor_(pqos), order_(std::move(order)),
      auto_order_(order_.empty())
{
}

void
IoIsolationPolicy::setup()
{
    const auto &specs = registry_.tenants();
    ways_.clear();
    for (const auto &spec : specs)
        ways_.push_back(spec.initial_ways);
    initial_ways_ = ways_;
    if (auto_order_) {
        // Regenerated every setup: tenant churn resizes the registry
        // under the default order.
        order_.resize(specs.size());
        std::iota(order_.begin(), order_.end(), 0);
    }
    IAT_ASSERT(order_.size() == specs.size(),
               "I/O-iso order must cover every tenant");
    for (std::size_t t = 0; t < specs.size(); ++t) {
        for (const auto core : specs[t].cores)
            pqos_.allocAssocSet(core, tenantClos(t));
    }
    masks_.assign(specs.size(), cache::WayMask{});
    programmed_.assign(specs.size(), cache::WayMask{});
    layoutAndApply();
    monitor_.attach(registry_);
}

void
IoIsolationPolicy::layoutAndApply()
{
    const unsigned num_ways = pqos_.l3NumWays();
    const unsigned ddio_ways = pqos_.ddioGetWays().count();
    const unsigned usable =
        std::max(1u, num_ways - std::min(ddio_ways, num_ways - 1));

    // Squeeze a scratch copy, not the demand itself: ways_ keeps
    // what the tenants want, so when DDIO hands ways back a later
    // layout restores the full widths instead of stranding the
    // squeezed-away capacity forever.
    std::vector<unsigned> fit = ways_;

    // First squeeze best-effort tenants down to one way while the
    // disjoint layout does not fit.
    auto total = [&] {
        unsigned sum = 0;
        for (unsigned w : fit)
            sum += w;
        return sum;
    };
    const auto &specs = registry_.tenants();
    bool shrunk = true;
    while (total() > usable && shrunk) {
        shrunk = false;
        std::size_t victim = specs.size();
        unsigned most = 1;
        for (std::size_t t = 0; t < specs.size(); ++t) {
            if (specs[t].priority == TenantPriority::BestEffort &&
                fit[t] > most) {
                most = fit[t];
                victim = t;
            }
        }
        if (victim < specs.size()) {
            --fit[victim];
            shrunk = true;
        }
    }
    // Still over budget with every BE at one way: late-ordered
    // tenants pay next, PC or not -- this is what leaves the paper's
    // container 4 with only 1-3 ways after the DDIO region grows
    // ("depending on the relative priority ... leading to latency
    // and throughput degradation anyway").
    shrunk = true;
    while (total() > usable && shrunk) {
        shrunk = false;
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
            if (fit[*it] > 1) {
                --fit[*it];
                shrunk = true;
                break;
            }
        }
    }

    // Lay out in order; tenants that no longer fit overlap the top
    // of the usable region (this is where the paper's "PC containers
    // have to share 5 ways" behaviour comes from).
    unsigned pos = 0;
    for (std::size_t t : order_) {
        const unsigned w = std::min(fit[t], usable);
        if (pos + w <= usable) {
            masks_[t] = cache::WayMask::fromRange(pos, w);
            pos += w;
        } else {
            masks_[t] = cache::WayMask::fromRange(usable - w, w);
        }
    }
    for (std::size_t t = 0; t < masks_.size(); ++t) {
        if (masks_[t] == programmed_[t])
            continue;
        // Re-tried on the next layoutAndApply() if rejected.
        if (pqos_.l3caSet(tenantClos(t), masks_[t]))
            programmed_[t] = masks_[t];
    }
}

cache::WayMask
IoIsolationPolicy::tenantMask(std::size_t t) const
{
    IAT_ASSERT(t < masks_.size(), "tenant out of range");
    return masks_[t];
}

void
IoIsolationPolicy::tick(double /*now*/)
{
    if (registry_.consumeDirty()) {
        setup();
        return;
    }
    const auto sample = monitor_.poll(params_.interval_seconds);

    std::size_t grow = ways_.size();
    double best = 0.01;
    for (std::size_t t = 0; t < sample.tenants.size(); ++t) {
        const auto &s = sample.tenants[t];
        if (s.d_miss_rate > best &&
            s.d_ipc < -params_.threshold_stable) {
            best = s.d_miss_rate;
            grow = t;
        }
    }
    if (grow < ways_.size())
        ++ways_[grow];

    // Re-layout every tick: the usable region tracks the current
    // hardware DDIO mask, so external DDIO changes squeeze the cores.
    layoutAndApply();
}

// ---------------------------------------------------------------------
// ResQ ring sizing

std::uint32_t
resqRingEntries(const cache::CacheGeometry &geometry,
                unsigned ddio_ways, std::uint32_t frame_bytes,
                unsigned num_queues)
{
    IAT_ASSERT(frame_bytes > 0 && num_queues > 0,
               "degenerate ResQ sizing");
    const double capacity =
        static_cast<double>(geometry.wayBytes()) * ddio_ways;
    const double per_queue = capacity / num_queues;
    auto entries = static_cast<std::uint32_t>(
        per_queue / static_cast<double>(frame_bytes));
    // Round down to a power of two, floor at 64.
    std::uint32_t pow2 = 64;
    while (pow2 * 2 <= entries)
        pow2 *= 2;
    return std::max<std::uint32_t>(64, pow2);
}

} // namespace iat::core
