/**
 * @file
 * Contract-driven policy property checking implementation.
 */

#include "check/policy_check.hh"

#include <vector>

#include "check/invariants.hh"
#include "core/daemon.hh"

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

    // A kind that promises the shuffle invariants (the IAT kinds)
    // carries a full allocator intent; check the ordered-segment/
    // shuffle invariants on it (valid even under injected faults --
    // intent is not hardware) plus the DDIO band the daemon believes
    // it programmed. This mirrors what the world fuzzer always
    // asserted for the daemon.
    if (contract.shuffle_invariants) {
        const auto &daemon = *policy.daemon();
        auto v = allocationViolation(daemon.allocator(),
                                     registry.tenants());
        if (!v.empty())
            return v;
        const unsigned dw = daemon.ddioWays();
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

} // namespace iat::check
