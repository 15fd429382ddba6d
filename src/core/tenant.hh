/**
 * @file
 * Tenant descriptions: the "Get Tenant Info" input of IAT (SS IV-A).
 *
 * IAT needs three things per tenant that hardware cannot tell it:
 * which cores it owns, whether its workload is I/O ("networking"),
 * and its priority (performance-critical vs best-effort; the
 * aggregation model's software stack gets its own special priority).
 * The paper keeps these records in a text file parsed by the daemon;
 * the registry supports both that format and programmatic setup.
 */

#ifndef IATSIM_CORE_TENANT_HH
#define IATSIM_CORE_TENANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/types.hh"

namespace iat::core {

/** Workload priorities (SS IV-A). */
enum class TenantPriority
{
    PerformanceCritical,
    BestEffort,
    /** The aggregation model's virtual switch: not a tenant, but IAT
     *  keeps a record and a special priority for it. */
    SoftwareStack,
};

const char *toString(TenantPriority priority);

/** Which tenant-device interaction model is deployed (SS II-C). */
enum class TenantModel { Aggregation, Slicing };

/** Static description of one tenant. */
struct TenantSpec
{
    std::string name;
    std::vector<cache::CoreId> cores;
    bool is_io = false;
    TenantPriority priority = TenantPriority::BestEffort;
    /** Ways the tenant is given at LLC Alloc time. */
    unsigned initial_ways = 2;

    /// @name Cluster placement metadata (src/cluster)
    /// @{

    /** Host the tenant was first placed on; -1 = single-host world. */
    int home_shard = -1;

    /**
     * May the cluster scheduler move this tenant to another host?
     * I/O tenants and the software stack are pinned by construction
     * (their cores poll device queues); batch tenants opt in.
     */
    bool migratable = false;
    /// @}
};

/** The daemon's tenant table. */
class TenantRegistry
{
  public:
    /** Add a tenant; returns its index. */
    std::size_t add(TenantSpec spec);

    /**
     * Remove the most recently added tenant and return its spec (so
     * churn injection can re-add it later). The registry is marked
     * dirty; the daemon re-runs Get Tenant Info next tick.
     */
    TenantSpec removeLast();

    /**
     * Remove the tenant named @p name (service detach-tenant path).
     * Returns false when absent; on success the registry is marked
     * dirty like removeLast().
     */
    bool removeByName(const std::string &name);

    /** Index of tenant @p name; -1 when absent. */
    int indexOf(const std::string &name) const;

    /**
     * Parse records of the form
     *   name cores=0,1 ways=2 prio={pc|be|stack} io={0|1}
     *        [shard=N] [migratable={0|1}]
     * one per line; '#' starts a comment. Returns tenants added.
     * This is the model's version of the paper's affiliation file.
     */
    std::size_t loadFromString(const std::string &text);
    std::size_t loadFromFile(const std::string &path);

    std::size_t size() const { return tenants_.size(); }
    const TenantSpec &operator[](std::size_t i) const
    {
        return tenants_[i];
    }
    const std::vector<TenantSpec> &tenants() const { return tenants_; }

    /** Mark changed; the daemon re-runs Get Tenant Info next tick. */
    void markDirty() { dirty_ = true; }
    bool consumeDirty()
    {
        const bool was = dirty_;
        dirty_ = false;
        return was;
    }

  private:
    std::vector<TenantSpec> tenants_;
    bool dirty_ = true;
};

} // namespace iat::core

#endif // IATSIM_CORE_TENANT_HH
