/**
 * @file
 * Contract-driven policy property checking implementation.
 */

#include "check/policy_check.hh"

#include <optional>
#include <vector>

#include "check/invariants.hh"
#include "core/daemon.hh"
#include "sim/platform.hh"
#include "util/rng.hh"

namespace iat::check {

namespace {

std::string
maskString(cache::WayMask mask, unsigned num_ways)
{
    return mask.toString(num_ways);
}

} // namespace

std::string
policyViolation(const core::Policy &policy, rdt::PqosSystem &pqos,
                const core::TenantRegistry &registry,
                const core::IatParams &params, bool strict)
{
    const auto contract = policy.contract();

    // The IAT kinds carry a full allocator intent; check the
    // ordered-segment/shuffle invariants on it (valid even under
    // injected faults -- intent is not hardware) plus the DDIO band
    // the daemon believes it programmed. This mirrors what the world
    // fuzzer always asserted for the daemon.
    if (const auto *daemon = policy.daemon()) {
        auto v = allocationViolation(daemon->allocator(),
                                     registry.tenants());
        if (!v.empty())
            return v;
        const unsigned dw = daemon->ddioWays();
        if (dw < std::max(params.ddio_ways_min, 1u) ||
            dw > params.ddio_ways_max) {
            return "DDIO ways " + std::to_string(dw) + " outside [" +
                   std::to_string(params.ddio_ways_min) + ", " +
                   std::to_string(params.ddio_ways_max) + "]";
        }
        return {};
    }

    const unsigned num_ways = pqos.l3NumWays();
    const std::size_t n = registry.size();
    std::vector<cache::WayMask> masks;
    for (std::size_t t = 0; t < n; ++t)
        masks.push_back(
            pqos.l3caGet(static_cast<cache::ClosId>(t + 1)));

    // Mask validity holds even under write rejection: the CAT
    // controller refuses invalid CBMs at the programming point, so a
    // stale mask is still a valid one.
    for (std::size_t t = 0; t < n; ++t) {
        if (contract.contiguous_masks && !masks[t].isValidCbm()) {
            return "tenant " + std::to_string(t) + " mask " +
                   maskString(masks[t], num_ways) +
                   " not a valid CBM";
        }
        if (!masks[t].empty() && masks[t].highest() >= num_ways) {
            return "tenant " + std::to_string(t) +
                   " mask exceeds the cache";
        }
    }

    if (!strict)
        return {};

    if (contract.tenant_disjoint) {
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = a + 1; b < n; ++b) {
                if (masks[a].overlaps(masks[b])) {
                    return "tenants " + std::to_string(a) + " and " +
                           std::to_string(b) + " overlap: " +
                           maskString(masks[a], num_ways) + " vs " +
                           maskString(masks[b], num_ways);
                }
            }
        }
    }
    if (contract.cluster_disjoint) {
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = a + 1; b < n; ++b) {
                if (masks[a].overlaps(masks[b]) &&
                    !(masks[a] == masks[b])) {
                    return "tenants " + std::to_string(a) + " and " +
                           std::to_string(b) +
                           " partially overlap (not cluster-mates): " +
                           maskString(masks[a], num_ways) + " vs " +
                           maskString(masks[b], num_ways);
                }
            }
        }
    }
    if (contract.ddio_disjoint) {
        const auto ddio = pqos.ddioGetWays();
        for (std::size_t t = 0; t < n; ++t) {
            if (masks[t].overlaps(ddio)) {
                return "tenant " + std::to_string(t) + " mask " +
                       maskString(masks[t], num_ways) +
                       " overlaps DDIO " +
                       maskString(ddio, num_ways);
            }
        }
    }
    if (contract.ddio_bounded) {
        const unsigned dw = pqos.ddioGetWays().count();
        if (dw < std::max(params.ddio_ways_min, 1u) ||
            dw > params.ddio_ways_max) {
            return "DDIO ways " + std::to_string(dw) + " outside [" +
                   std::to_string(params.ddio_ways_min) + ", " +
                   std::to_string(params.ddio_ways_max) + "]";
        }
    }
    return {};
}

std::string
fuzzPolicyTrial(core::PolicyKind kind, std::uint64_t seed,
                std::uint64_t iterations)
{
    Rng rng(seed);

    sim::PlatformConfig cfg;
    cfg.num_cores = 4;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 64;
    sim::Platform platform(cfg);

    core::TenantRegistry registry;
    {
        core::TenantSpec io;
        io.name = "io";
        io.cores = {0, 1};
        io.is_io = true;
        registry.add(io);

        core::TenantSpec cpu;
        cpu.name = "cpu";
        cpu.cores = {2};
        cpu.priority = rng.below(2)
                           ? core::TenantPriority::PerformanceCritical
                           : core::TenantPriority::BestEffort;
        registry.add(cpu);

        if (rng.below(2)) {
            core::TenantSpec extra;
            extra.name = "extra";
            extra.cores = {3};
            extra.priority = rng.below(2)
                                 ? core::TenantPriority::SoftwareStack
                                 : core::TenantPriority::BestEffort;
            extra.initial_ways = 1;
            registry.add(extra);
        }
    }

    core::IatParams params;
    params.interval_seconds = 5e-3;
    params.ddio_ways_min = 1 + static_cast<unsigned>(rng.below(2));
    params.ddio_ways_max = 4 + static_cast<unsigned>(rng.below(3));
    params.adaptive_io_step = rng.below(2) != 0;

    auto policy = core::makePolicy(kind, platform.pqos(), registry,
                                   params);

    const auto randAddr = [&] {
        return static_cast<cache::Addr>(rng.below(1ull << 16) * 64);
    };

    std::optional<core::TenantSpec> parked;
    bool registry_pending = true;
    std::uint64_t ticks = 0;

    for (std::uint64_t i = 0; i < iterations; ++i) {
        // Fuzzed monitor inputs: random core and DMA bursts per
        // interval, so IPC, refs, miss-rate and DDIO streams jump
        // arbitrarily between polls.
        const unsigned bursts =
            1 + static_cast<unsigned>(rng.below(4));
        for (unsigned b = 0; b < bursts; ++b) {
            const auto core =
                static_cast<cache::CoreId>(rng.below(cfg.num_cores));
            const auto dev =
                static_cast<cache::DeviceId>(rng.below(2));
            switch (rng.below(4)) {
              case 0:
                platform.coreTouch(core, randAddr(),
                                   64 * (1 + rng.below(64)),
                                   rng.below(2)
                                       ? cache::AccessType::Write
                                       : cache::AccessType::Read);
                break;
              case 1:
                platform.coreAccess(core, randAddr(),
                                    rng.below(2)
                                        ? cache::AccessType::Write
                                        : cache::AccessType::Read);
                break;
              case 2:
                platform.dmaWrite(dev, randAddr(),
                                  64 * (1 + rng.below(24)));
                break;
              default:
                platform.dmaRead(dev, randAddr(),
                                 64 * (1 + rng.below(24)));
                break;
            }
        }
        platform.advanceQuantum(params.interval_seconds);

        // Tenant churn, like the world fuzzer's.
        if (rng.below(40) == 0) {
            if (parked) {
                registry.add(*parked);
                parked.reset();
            } else if (registry.size() > 2) {
                parked = registry.removeLast();
            }
            registry.markDirty();
            registry_pending = true;
        }

        policy->tick(platform.now());
        ++ticks;
        registry_pending = false;

        if (ticks >= 1 && !registry_pending) {
            auto v = policyViolation(*policy, platform.pqos(),
                                     registry, params,
                                     /*strict=*/true);
            if (!v.empty()) {
                return std::string(core::toString(kind)) +
                       " iteration " + std::to_string(i + 1) + ": " +
                       std::move(v);
            }
        }
    }
    return {};
}

} // namespace iat::check
