/**
 * @file
 * The slicing-model Latent-Contender world of SS VI-B (Figs 10, 11).
 *
 * Two PC testpmd containers each own one VF (one per physical NIC)
 * and one core, and share a three-way CAT group. Three X-Mem
 * containers (2 BE, 1 PC) own one core and two ways each. The
 * scripted phases of Fig 10 -- container 4's working set growing at
 * t=5s, the DDIO way count being flipped externally at t=15s -- are
 * driven by the bench via growXmem4()/setDdioWays().
 */

#ifndef IATSIM_SCENARIOS_SLICING_PMD_XMEM_HH
#define IATSIM_SCENARIOS_SLICING_PMD_XMEM_HH

#include <memory>
#include <vector>

#include "scenarios/world.hh"
#include "wl/handlers.hh"
#include "wl/xmem.hh"

namespace iat::scenarios {

/** Configuration for the slicing testpmd + X-Mem world. */
struct SlicingPmdXmemConfig
{
    std::uint32_t frame_bytes = 1500;
    double rate_pps = 0.0; ///< 0 = line rate per VF
    std::uint32_t ring_entries = 1024;
    double pool_factor = 2.0;
    std::uint64_t xmem_initial_bytes = 2 * MiB;
    std::uint64_t xmem_max_bytes = 16 * MiB;
    std::uint64_t seed = 1;
};

/** Assembled world; tenant indices: 0=pmd pair, 1..3=xmem 2..4.
 *  NIC i is the VF of physical port i. */
class SlicingPmdXmemWorld : public World
{
  public:
    static constexpr std::size_t kTenantPmd = 0;
    static constexpr std::size_t kTenantXmem2 = 1;
    static constexpr std::size_t kTenantXmem3 = 2;
    static constexpr std::size_t kTenantXmem4 = 3;

    SlicingPmdXmemWorld(sim::Platform &platform,
                        const SlicingPmdXmemConfig &cfg);

    void attach(sim::Engine &engine) override;

    /** X-Mem of container 2/3/4 via index 0/1/2. */
    wl::XMemWorkload &xmem(unsigned i) { return *xmems_[i]; }

    /** Fig 10 phase 1: grow container 4's working set. */
    void
    growXmem4(std::uint64_t bytes)
    {
        xmems_[2]->setWorkingSet(bytes);
    }

    /**
     * Pause/resume tenant @p t's workload (fairness solo runs):
     * tenant 0 pauses both VF generators, tenants 1-3 pause the
     * corresponding X-Mem.
     */
    void setTenantActive(std::size_t t, bool active) override;

    core::TenantModel model() const override
    {
        return core::TenantModel::Slicing;
    }

    void setFrameBytes(std::uint32_t bytes);

    const SlicingPmdXmemConfig &config() const { return cfg_; }

  private:
    SlicingPmdXmemConfig cfg_;

    std::vector<std::unique_ptr<wl::TestPmdHandler>> pmd_handlers_;
    std::vector<std::unique_ptr<wl::XMemWorkload>> xmems_;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_SLICING_PMD_XMEM_HH
