/**
 * @file
 * The aggregation-model micro-benchmark world of SS VI-B (Figs 8, 9).
 *
 * Two physical NICs feed an OVS-style virtual switch running on two
 * dedicated cores (one poll thread per NIC); each of N testpmd
 * containers owns dedicated cores and bounces its traffic back
 * through the switch. OVS inserts the paper's four rules
 * (NICi <-> Container i). The switch tenants and the containers get
 * the paper's way split: OVS two ways, one way per container.
 */

#ifndef IATSIM_SCENARIOS_AGG_TESTPMD_HH
#define IATSIM_SCENARIOS_AGG_TESTPMD_HH

#include <memory>
#include <vector>

#include "scenarios/world.hh"
#include "wl/handlers.hh"

namespace iat::scenarios {

/** Configuration for the aggregation testpmd world. */
struct AggTestPmdConfig
{
    unsigned num_containers = 2;     ///< testpmd tenants (paper: 2)
    std::uint32_t frame_bytes = 64;
    double rate_pps = 0.0;           ///< 0 = 40GbE line rate
    std::uint64_t flows = 1;         ///< flow population per NIC
    /** Classifier tables are sized for this population up front so
     *  the flow count can ramp mid-run (Fig 9). */
    std::uint64_t max_flows = 1'000'000;
    net::FlowDistribution flow_dist = net::FlowDistribution::Single;
    std::uint32_t ring_entries = 1024;
    double pool_factor = 2.0;        ///< mbufs per ring entry
    unsigned ovs_ways = 2;
    unsigned container_ways = 1;
    std::uint64_t seed = 1;
};

/** Assembled world; owns every component. */
class AggTestPmdWorld : public World
{
  public:
    AggTestPmdWorld(sim::Platform &platform,
                    const AggTestPmdConfig &cfg);

    /** Change the generated frame size on both NICs (Fig 8). */
    void setFrameBytes(std::uint32_t bytes);

    /** Retarget both NICs; 0 = line rate for the current frame. */
    void setRate(double rate_pps);

    /** Grow/shrink the flow population on both NICs (Fig 9 ramp). */
    void setFlows(std::uint64_t flows);

    /** Frames lost anywhere (MAC drops, ring/pool overflow). */
    std::uint64_t totalDrops() const;

    /** Clear NIC counters/latency and the OVS stage counts. */
    void resetStats() override;

    /**
     * Pause/resume the traffic driving tenant @p t (fairness solo
     * runs). Tenant 0 is the OVS stack -- pausing it stops every
     * NIC; container i (tenant i+1) maps to NIC i's generator.
     */
    void setTenantActive(std::size_t t, bool active) override;

    core::TenantModel model() const override
    {
        return core::TenantModel::Aggregation;
    }

    /** OVS poll-thread stages (for IPC/CPP accounting). */
    const std::vector<net::Stage *> &ovsStages() const
    {
        return ovs_stages_;
    }

    /** Cores used by the OVS poll threads. */
    const std::vector<cache::CoreId> &ovsCores() const
    {
        return ovs_cores_;
    }

    const AggTestPmdConfig &config() const { return cfg_; }

  private:
    AggTestPmdConfig cfg_;

    std::vector<std::unique_ptr<net::Ring>> tenant_rx_;
    std::vector<std::unique_ptr<net::Ring>> tenant_tx_;
    std::vector<std::unique_ptr<net::BufferPool>> tenant_pools_;
    std::shared_ptr<wl::VSwitchTables> tables_;
    std::vector<std::unique_ptr<wl::VSwitchHandler>> ovs_handlers_;
    std::vector<std::unique_ptr<wl::TestPmdHandler>> pmd_handlers_;
    std::vector<net::Stage *> ovs_stages_;
    std::vector<cache::CoreId> ovs_cores_;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_AGG_TESTPMD_HH
