/**
 * @file
 * The application co-run world of SS VI-C (Figs 12, 13, 14).
 *
 * Networking side, one of:
 *  - Redis: two Redis containers behind an OVS-style switch
 *    (aggregation), serving YCSB with 1M x 1KB records and
 *    Zipf(0.99) keys from two traffic-generator NICs;
 *  - NfvChain: four FastClick-style firewall/stats/NAPT chains, one
 *    per SR-IOV VF (slicing), 1.5KB frames at 20Gb/s per VLAN.
 *
 * Non-networking side (both modes): one PC container running a
 * SPEC2006 profile or the RocksDB model under a YCSB mix, plus two
 * BE X-Mem containers (1 MB and 10 MB working sets).
 *
 * The baseline randomizes the placement of the three non-networking
 * containers over the free way slots -- sometimes landing on DDIO's
 * ways, which is precisely the spread Figs 12-14 report -- while IAT
 * runs use the daemon (with tenant way tuning disabled, as in the
 * paper).
 */

#ifndef IATSIM_SCENARIOS_CORUN_HH
#define IATSIM_SCENARIOS_CORUN_HH

#include <memory>
#include <string>
#include <vector>

#include "scenarios/world.hh"
#include "util/rng.hh"
#include "wl/handlers.hh"
#include "wl/kvstore.hh"
#include "wl/spec.hh"
#include "wl/xmem.hh"

namespace iat::scenarios {

/** Configuration of the co-run world. */
struct CorunConfig
{
    enum class NetApp { Redis, NfvChain };

    NetApp net_app = NetApp::Redis;

    /** SPEC profile name, or "rocksdb" for the KV store model. */
    std::string pc_app = "mcf";
    char rocksdb_mix = 'A';

    /** YCSB mix served by Redis; request frames and the read/write
     *  split derive from it. 'A' (50% updates) keeps meaningful
     *  inbound DDIO pressure, which the co-run figures rely on. */
    char redis_mix = 'A';
    /** Request rate per generator NIC; 0 = a near-capacity default. */
    double redis_rate_pps = 0.0;

    std::uint32_t ring_entries = 1024;
    double pool_factor = 2.0;
    std::uint64_t redis_records = 1'000'000;
    std::uint64_t nfv_flows = 10'000;
    std::uint64_t seed = 1;
};

/** Assembled co-run world; tenant 0 = networking group, 1 = PC app,
 *  2 = BE X-Mem 1MB, 3 = BE X-Mem 10MB. The NICs are the two
 *  generator ports (Redis) or the four VFs (NFV). */
class CorunWorld : public World
{
  public:
    static constexpr std::size_t kTenantNet = 0;
    static constexpr std::size_t kTenantPcApp = 1;
    static constexpr std::size_t kTenantBeSmall = 2;
    static constexpr std::size_t kTenantBeLarge = 3;

    CorunWorld(sim::Platform &platform, const CorunConfig &cfg);

    void attach(sim::Engine &engine) override;

    /**
     * Baseline placement: networking group on ways 0-2, the three
     * non-networking tenants on a random permutation of the 2-way
     * slots {3-4, 5-6, 7-8, 9-10} (one slot stays empty; a tenant
     * landing on 9-10 overlaps DDIO).
     */
    void applyBaselinePlacement(Rng &rng);

    /**
     * Canonical baseline placements spanning the paper's min-max
     * band: 0 = nobody on DDIO's ways (the empty slot lands on
     * 9-10), 1 = the PC app on DDIO's ways, 2 = the 10MB BE X-Mem
     * on DDIO's ways.
     */
    void applyDeterministicPlacement(int variant);

    /** Pause/resume everything except the PC app (solo runs). */
    void setNetworkingActive(bool active);
    void setBackgroundActive(bool active);

    /**
     * Pause/resume one tenant's workload (fairness solo runs):
     * 0 = the networking group's NICs, 1 = the PC app, 2/3 = the BE
     * X-Mems.
     */
    void setTenantActive(std::size_t t, bool active) override;

    /** Redis sits behind an OVS-style switch (aggregation); the NFV
     *  chains own one VF each (slicing). */
    core::TenantModel model() const override;

    /// @name Measurement accessors
    /// @{

    /** PC app progress since the last reset: instructions (SPEC) or
     *  operations (RocksDB). */
    std::uint64_t pcAppProgress() const;

    /** RocksDB model, when pc_app == "rocksdb"; else nullptr. */
    wl::KvStoreWorkload *rocksdb() { return rocksdb_.get(); }

    /** Responses sent since the last reset (Redis mode); frames
     *  forwarded (NFV mode). */
    std::uint64_t delivered() const override;

    /** Clear the measurement window across all components. */
    void resetStats() override;
    /// @}

    const CorunConfig &config() const { return cfg_; }

  private:
    void buildRedis();
    void buildNfv();
    void buildNonNetworking();

    CorunConfig cfg_;

    std::vector<std::unique_ptr<net::Ring>> srv_rx_;
    std::vector<std::unique_ptr<net::Ring>> srv_tx_;
    std::vector<std::unique_ptr<net::BufferPool>> srv_pools_;
    std::vector<std::unique_ptr<net::BufferPool>> srv_tx_pools_;
    std::shared_ptr<wl::VSwitchTables> tables_;
    std::vector<std::unique_ptr<wl::VSwitchHandler>> ovs_handlers_;
    std::vector<std::unique_ptr<wl::RedisHandler>> redis_handlers_;
    std::vector<std::unique_ptr<wl::NfChainHandler>> nfv_handlers_;

    std::unique_ptr<wl::SpecWorkload> spec_;
    std::unique_ptr<wl::KvStoreWorkload> rocksdb_;
    std::vector<std::unique_ptr<wl::XMemWorkload>> xmems_;

    std::uint64_t pc_progress_base_ = 0;
    std::uint64_t redis_responses_base_ = 0;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_CORUN_HH
