/**
 * @file
 * First-class policy abstraction for the bakeoff (ROADMAP "Policy
 * bakeoff" item): every LLC-management strategy the repo ships --
 * the paper's IAT daemon, the SS VI baselines, and the related-work
 * controllers IOCA and LFOC -- behind one `Policy` interface, so
 * iatctl, the benches, the `.exp` campaigns and the fuzzers can
 * instantiate any of them from a single `policy=` string.
 *
 * Each policy also publishes a PolicyContract: the structural
 * invariants it *claims* to uphold. The contracts differ by design --
 * Core-only deliberately grows tenants into DDIO's ways (it cannot
 * see them), I/O-iso overlaps tenants when squeezed out of room, and
 * LFOC shares one mask among all tenants of a cluster -- so the
 * property fuzzer (check/policy_check.hh) verifies exactly what each
 * policy promises, not one IAT-shaped rule for all.
 */

#ifndef IATSIM_CORE_POLICY_HH
#define IATSIM_CORE_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/params.hh"
#include "core/tenant.hh"
#include "rdt/pqos.hh"

namespace iat::obs {
class Telemetry;
} // namespace iat::obs

namespace iat::core {

class IatDaemon;

/** Every registered policy, in bakeoff table order. */
enum class PolicyKind
{
    Static,    ///< static CAT, default DDIO, no dynamics
    CoreOnly,  ///< dCAT-style dynamic cores, I/O-blind
    IoIso,     ///< Core-only + DDIO ways excluded from cores
    Iat,       ///< the paper's daemon
    IatNoDdio, ///< IAT with the footnote-3 DDIO-tuning ablation
    Ioca,      ///< IOCA-style watermark DDIO controller (PAPERS #1)
    Lfoc,      ///< LFOC sensitivity-based clustering (PAPERS #3)
};

/** Machine label, unique per kind (the `policy=` spelling). */
const char *toString(PolicyKind kind);

/** Parse a machine label; false when unknown. */
bool parsePolicyKind(const std::string &name, PolicyKind &out);

/** All kinds, in declaration order (the property suite iterates). */
const std::vector<PolicyKind> &allPolicyKinds();

/** Every machine label, '|'-joined in declaration order (for
 *  usage text and unknown-policy errors). */
std::string policyKindLabels();

/**
 * The structural invariants a policy guarantees over the *hardware*
 * state it programs (per-CLOS masks + the DDIO register). The
 * property fuzzer checks exactly these after every tick.
 */
struct PolicyContract
{
    /** Every tenant CLOS mask is a valid CBM (non-empty,
     *  consecutive) inside the cache. Everyone promises this. */
    bool contiguous_masks = true;

    /** Tenant masks are pairwise disjoint. */
    bool tenant_disjoint = false;

    /** Tenant masks are pairwise disjoint OR bit-identical (LFOC:
     *  cluster members share one mask; distinct clusters never
     *  partially overlap). */
    bool cluster_disjoint = false;

    /** No tenant mask intersects the programmed DDIO mask. */
    bool ddio_disjoint = false;

    /** The DDIO way count stays within [ddio_ways_min,
     *  ddio_ways_max] once the policy has taken control of it. */
    bool ddio_bounded = false;

    /** The IAT ordered-segment invariants (check/invariants.hh)
     *  hold on the policy's allocator intent; only an IatDaemon
     *  (daemon() non-null) carries one. */
    bool shuffle_invariants = false;
};

/** The contract each kind declares; see the field comments. */
PolicyContract policyContract(PolicyKind kind);

/** One LLC-management policy driven by periodic ticks. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Run one controller iteration at simulated time @p now. */
    virtual void tick(double now) = 0;

    virtual PolicyKind kind() const = 0;
    const char *name() const { return toString(kind()); }
    PolicyContract contract() const { return policyContract(kind()); }

    /** This policy as the IAT daemon, when it is one (for the
     *  hardening counters and allocator-intent checks). */
    virtual const IatDaemon *daemon() const { return nullptr; }
    virtual IatDaemon *daemon() { return nullptr; }
};

/**
 * Instantiate @p kind over @p registry; every `policy=` entry point
 * builds through here. The returned policy owns its monitor/allocator
 * state; hook its tick() into an engine with fault::attachPolicy().
 * @p telemetry and @p hardening only affect the IAT kinds (the
 * baselines and related-work controllers predate both). Static
 * programs its layout immediately and re-applies it on registry
 * churn when ticked.
 */
std::unique_ptr<Policy> makePolicy(PolicyKind kind,
                                   rdt::PqosSystem &pqos,
                                   TenantRegistry &registry,
                                   const IatParams &params,
                                   TenantModel model =
                                       TenantModel::Slicing,
                                   obs::Telemetry *telemetry = nullptr,
                                   bool hardening = true);

} // namespace iat::core

#endif // IATSIM_CORE_POLICY_HH
