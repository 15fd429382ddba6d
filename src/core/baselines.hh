/**
 * @file
 * The comparison policies of the evaluation (SS VI-B).
 *
 *  - StaticPolicy: the paper's "baseline" -- the bottom-packed
 *    initial CAT layout (applyStaticLayout()), hardware-default DDIO,
 *    no dynamics.
 *  - CoreOnlyPolicy: "we only adjust the LLC allocation without I/O
 *    awareness" -- a dCAT-style dynamic core allocator that happily
 *    grows tenants into ways DDIO is using, because it cannot see
 *    DDIO. Emulates the state of the art the paper compares against.
 *  - IoIsolationPolicy: Core-only plus a hard rule that core masks
 *    never include DDIO's ways, which strands capacity when DDIO's
 *    region grows (the paper's "I/O-iso").
 *  - ResQ-style ring sizing (SS III-A): a setup-time helper that
 *    bounds Rx-ring footprints to DDIO's capacity.
 */

#ifndef IATSIM_CORE_BASELINES_HH
#define IATSIM_CORE_BASELINES_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "core/allocator.hh"
#include "core/monitor.hh"
#include "core/params.hh"
#include "core/policy.hh"
#include "core/tenant.hh"
#include "rdt/pqos.hh"

namespace iat::core {

/**
 * Program the paper's "basic static CAT" baseline: tenants get their
 * initial way counts, bottom-packed PC/stack-first (the same layout
 * the IAT daemon starts from), cores associated with per-tenant
 * CLOS, monitoring RMIDs assigned. DDIO stays at the hardware value.
 *
 * Returns the per-tenant masks that were programmed.
 */
std::vector<cache::WayMask> applyStaticLayout(
    rdt::PqosSystem &pqos, const TenantRegistry &registry);

/**
 * Program an explicit per-tenant order (bottom -> top), used by
 * benches that randomize baseline placement (Figs 12-14 shuffle the
 * non-networking tenants' slots at start).
 */
std::vector<cache::WayMask> applyStaticLayout(
    rdt::PqosSystem &pqos, const TenantRegistry &registry,
    const std::vector<std::size_t> &order);

/**
 * The static baseline: programs applyStaticLayout() at construction
 * and, when ticked, re-applies it after registry churn.
 */
class StaticPolicy : public Policy
{
  public:
    StaticPolicy(rdt::PqosSystem &pqos, TenantRegistry &registry);

    void tick(double now) override;
    PolicyKind kind() const override { return PolicyKind::Static; }

  private:
    rdt::PqosSystem &pqos_;
    TenantRegistry &registry_;
};

/** I/O-unaware dynamic way allocation; see file comment. */
class CoreOnlyPolicy : public Policy
{
  public:
    CoreOnlyPolicy(rdt::PqosSystem &pqos, TenantRegistry &registry,
                   const IatParams &params);

    void tick(double now) override;
    PolicyKind kind() const override { return PolicyKind::CoreOnly; }

    const WayAllocator &allocator() const { return alloc_; }
    Monitor &monitor() { return monitor_; }

  private:
    void setup();
    void applyMasks();

    rdt::PqosSystem &pqos_;
    TenantRegistry &registry_;
    IatParams params_;
    Monitor monitor_;
    WayAllocator alloc_;
    std::vector<unsigned> initial_ways_;
    std::vector<cache::WayMask> programmed_;
};

/** Core-only with DDIO's ways excluded from every core mask. */
class IoIsolationPolicy : public Policy
{
  public:
    /**
     * @param order  Tenant placement order (bottom first); the paper's
     *               Fig 10 range comes from this being arbitrary.
     */
    IoIsolationPolicy(rdt::PqosSystem &pqos, TenantRegistry &registry,
                      const IatParams &params,
                      std::vector<std::size_t> order = {});

    void tick(double now) override;
    PolicyKind kind() const override { return PolicyKind::IoIso; }

    /** The mask programmed for tenant @p t (may overlap others'). */
    cache::WayMask tenantMask(std::size_t t) const;

  private:
    void setup();
    void layoutAndApply();

    rdt::PqosSystem &pqos_;
    TenantRegistry &registry_;
    IatParams params_;
    Monitor monitor_;
    std::vector<unsigned> ways_;
    std::vector<unsigned> initial_ways_;
    std::vector<std::size_t> order_;
    /** True when order_ is the index-order default, so setup() can
     *  regenerate it after tenant churn resizes the registry. An
     *  explicit order pins the tenant count instead. */
    bool auto_order_ = false;
    std::vector<cache::WayMask> masks_;
    std::vector<cache::WayMask> programmed_;
};

/**
 * ResQ-style Rx ring sizing: the number of ring entries such that
 * all queues' in-flight buffers fit DDIO's LLC share, rounded down
 * to a power of two and floored at 64 (smaller rings cannot absorb
 * even minimal bursts).
 */
std::uint32_t resqRingEntries(const cache::CacheGeometry &geometry,
                              unsigned ddio_ways,
                              std::uint32_t frame_bytes,
                              unsigned num_queues);

} // namespace iat::core

#endif // IATSIM_CORE_BASELINES_HH
