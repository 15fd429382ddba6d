/**
 * @file
 * Contract-driven policy invariant checking (the bakeoff's property
 * suite).
 *
 * Every registered core::Policy declares a PolicyContract -- the
 * structural guarantees it makes about the hardware state it
 * programs. policyViolation() verifies exactly that contract against
 * the live pqos registers after a tick, so one checker covers
 * policies with deliberately different rules (Core-only overlaps
 * DDIO by design; LFOC shares masks within a cluster; IAT adds the
 * full ordered-segment/shuffle lattice of invariants.hh).
 *
 * The generator is the world fuzzer (fuzz.hh: fuzzWorldTrial(), also
 * `fuzz_sim --mode=world --policy=...`): a small platform and tenant
 * registry driven by seeded random traffic bursts and tenant churn --
 * fuzzed monitor inputs -- with this contract checked after every
 * policy tick while the cache oracle shadows the traffic. The
 * property suite runs it with an empty FaultPlan, so every check is
 * strict; with MSR faults only the always-true checks run (see
 * policyViolation()).
 */

#ifndef IATSIM_CHECK_POLICY_CHECK_HH
#define IATSIM_CHECK_POLICY_CHECK_HH

#include <cstdint>
#include <string>

#include "core/params.hh"
#include "core/policy.hh"
#include "core/tenant.hh"
#include "rdt/pqos.hh"

namespace iat::check {

/**
 * Check @p policy's declared contract against the hardware state in
 * @p pqos for the tenants of @p registry. A contract that promises
 * shuffle_invariants (the IAT kinds) is checked on the daemon's
 * allocator intent instead -- the ordered-segment invariants and the
 * DDIO band it believes it programmed -- which holds even under
 * injected faults. For every other kind, with @p strict false (the
 * trial injected MSR write rejections) only mask validity is checked,
 * because a transiently rejected write legitimately leaves a stale
 * (possibly overlapping) mask in hardware until the policy's retry
 * path repairs it. Returns an empty string when the contract holds,
 * else the first violation.
 */
std::string policyViolation(const core::Policy &policy,
                            rdt::PqosSystem &pqos,
                            const core::TenantRegistry &registry,
                            const core::IatParams &params,
                            bool strict = true);

} // namespace iat::check

#endif // IATSIM_CHECK_POLICY_CHECK_HH
