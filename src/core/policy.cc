/**
 * @file
 * Policy registry: labels, contracts and the factory.
 */

#include "core/policy.hh"

#include "core/baselines.hh"
#include "core/daemon.hh"
#include "core/ioca.hh"
#include "core/lfoc.hh"

namespace iat::core {

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Static: return "baseline";
      case PolicyKind::CoreOnly: return "core-only";
      case PolicyKind::IoIso: return "io-iso";
      case PolicyKind::Iat: return "IAT";
      case PolicyKind::IatNoDdio: return "IAT-noddio";
      case PolicyKind::Ioca: return "ioca";
      case PolicyKind::Lfoc: return "lfoc";
    }
    return "?";
}

bool
parsePolicyKind(const std::string &name, PolicyKind &out)
{
    if (name == "baseline" || name == "static")
        out = PolicyKind::Static;
    else if (name == "core-only")
        out = PolicyKind::CoreOnly;
    else if (name == "io-iso")
        out = PolicyKind::IoIso;
    else if (name == "IAT" || name == "iat")
        out = PolicyKind::Iat;
    else if (name == "IAT-noddio" || name == "iat-noddio")
        out = PolicyKind::IatNoDdio;
    else if (name == "ioca" || name == "IOCA")
        out = PolicyKind::Ioca;
    else if (name == "lfoc" || name == "LFOC")
        out = PolicyKind::Lfoc;
    else
        return false;
    return true;
}

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Static,    PolicyKind::CoreOnly,
        PolicyKind::IoIso,     PolicyKind::Iat,
        PolicyKind::IatNoDdio, PolicyKind::Ioca,
        PolicyKind::Lfoc,
    };
    return kinds;
}

std::string
policyKindLabels()
{
    std::string labels;
    for (const auto kind : allPolicyKinds()) {
        if (!labels.empty())
            labels += '|';
        labels += toString(kind);
    }
    return labels;
}

PolicyContract
policyContract(PolicyKind kind)
{
    PolicyContract c;
    switch (kind) {
      case PolicyKind::Static:
        // Bottom-packed initial grants, DDIO untouched. An external
        // DDIO widening can reach into the static masks, so only
        // tenant disjointness is promised.
        c.tenant_disjoint = true;
        break;
      case PolicyKind::CoreOnly:
        // Grows into DDIO's ways by design (it cannot see them).
        c.tenant_disjoint = true;
        break;
      case PolicyKind::IoIso:
        // Never touches DDIO's ways, but overlaps *tenants* when the
        // usable region cannot hold them all.
        c.ddio_disjoint = true;
        break;
      case PolicyKind::Iat:
        c.tenant_disjoint = true;
        c.ddio_bounded = true;
        c.shuffle_invariants = true;
        break;
      case PolicyKind::IatNoDdio:
        // The ablation leaves the DDIO register alone, so the band
        // promise goes with it.
        c.tenant_disjoint = true;
        c.shuffle_invariants = true;
        break;
      case PolicyKind::Ioca:
        // Allocator-backed like IAT, but I/O tenants sit on top by
        // a fixed order, not the BE-last shuffle -- so the shuffle
        // lattice rules do not apply. Under full allocation the top
        // tenant may share with DDIO, exactly like IAT.
        c.tenant_disjoint = true;
        c.ddio_bounded = true;
        break;
      case PolicyKind::Lfoc:
        // Cluster members share one mask; distinct clusters never
        // partially overlap. Sizes itself below the DDIO region.
        c.tenant_disjoint = false;
        c.cluster_disjoint = true;
        c.ddio_disjoint = true;
        break;
    }
    return c;
}

std::unique_ptr<Policy>
makePolicy(PolicyKind kind, rdt::PqosSystem &pqos,
           TenantRegistry &registry, const IatParams &params,
           TenantModel model, obs::Telemetry *telemetry,
           bool hardening)
{
    switch (kind) {
      case PolicyKind::Static:
        return std::make_unique<StaticPolicy>(pqos, registry);
      case PolicyKind::CoreOnly:
        return std::make_unique<CoreOnlyPolicy>(pqos, registry,
                                                params);
      case PolicyKind::IoIso:
        return std::make_unique<IoIsolationPolicy>(pqos, registry,
                                                   params);
      case PolicyKind::Iat:
      case PolicyKind::IatNoDdio: {
        auto daemon =
            std::make_unique<IatDaemon>(pqos, registry, params, model);
        daemon->setDdioTuningEnabled(kind == PolicyKind::Iat);
        daemon->setHardeningEnabled(hardening);
        daemon->setTelemetry(telemetry);
        return daemon;
      }
      case PolicyKind::Ioca:
        return std::make_unique<IocaPolicy>(pqos, registry, params);
      case PolicyKind::Lfoc:
        return std::make_unique<LfocPolicy>(pqos, registry, params);
    }
    return nullptr;
}

} // namespace iat::core
