/**
 * @file
 * Packet handlers: the per-packet work of each networking workload
 * in the paper's evaluation.
 *
 *  - TestPmdHandler: DPDK testpmd io-forwarding -- touch the header,
 *    bounce the frame (Figs 8, 10, 11).
 *  - L3FwdHandler: DPDK l3fwd -- header parse + lookup against a
 *    1M-flow table, then forward (Figs 3, 4).
 *  - VSwitchHandler: an OVS-DPDK-style switch -- EMC exact-match
 *    fast path, wildcard (dpcls/megaflow) slow path whose footprint
 *    scales with the flow population, and a vhost copy into the
 *    destination tenant's buffers (Figs 8, 9, 12-14).
 *  - NfChainHandler: the FastClick service chain -- firewall,
 *    AggregateIPFlows-style stats, NAPT (Figs 12, 13).
 *  - RedisHandler: networked in-memory KVS serving YCSB over the
 *    virtual switch (Fig 14).
 *
 * Cost models follow one recipe: a fixed instruction/cycle budget for
 * the compute path plus real memory accesses through the platform,
 * so service time inherits the cache state -- including Leaky-DMA
 * misses on freshly DMA'd packet lines.
 */

#ifndef IATSIM_WL_HANDLERS_HH
#define IATSIM_WL_HANDLERS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/nic.hh"
#include "net/pipeline.hh"
#include "sim/address_space.hh"
#include "util/rng.hh"
#include "wl/ycsb.hh"

namespace iat::wl {

/** Where a handler sends a processed packet. */
struct ForwardPort
{
    net::Ring *ring = nullptr;       ///< descriptor handoff (zero-copy)
    net::NicQueue *nic = nullptr;    ///< transmit on this queue
};

/** Shared helper: forward @p pkt per @p port; drops on overflow. */
bool forwardPacket(net::Packet &pkt, const ForwardPort &port,
                   double now);

/** testpmd in io-forward mode. */
class TestPmdHandler : public net::PacketHandler
{
  public:
    TestPmdHandler(sim::Platform &platform, cache::CoreId core,
                   ForwardPort out);

    Outcome process(net::Packet pkt, double now) override;

  private:
    sim::Platform &platform_;
    cache::CoreId core_;
    ForwardPort out_;
};

/** l3fwd with a hash flow table. */
class L3FwdHandler : public net::PacketHandler
{
  public:
    L3FwdHandler(sim::Platform &platform, cache::CoreId core,
                 std::uint64_t flow_table_entries, ForwardPort out);

    Outcome process(net::Packet pkt, double now) override;

  private:
    sim::Platform &platform_;
    cache::CoreId core_;
    sim::AddressSpace::Region table_;
    ForwardPort out_;
};

/**
 * Tables shared by the virtual switch's poll threads: the exact-match
 * cache and the wildcard classifier.
 */
class VSwitchTables
{
  public:
    VSwitchTables(sim::Platform &platform, std::uint64_t max_flows,
                  std::uint32_t emc_entries = 8192);

    /** Functional EMC lookup: true if @p flow occupies its slot. */
    bool emcProbe(std::uint64_t flow) const;
    void emcInstall(std::uint64_t flow);
    std::uint32_t emcSlot(std::uint64_t flow) const;

    const sim::AddressSpace::Region &emcRegion() const { return emc_; }
    const sim::AddressSpace::Region &dpclsRegion() const
    {
        return dpcls_;
    }

  private:
    std::uint32_t emc_entries_;
    sim::AddressSpace::Region emc_;
    sim::AddressSpace::Region dpcls_;
    std::vector<std::uint64_t> emc_tags_;
};

/** One OVS poll thread; routing is by ingress device. */
class VSwitchHandler : public net::PacketHandler
{
  public:
    /** Destination of packets arriving from one NIC device. */
    struct TenantPort
    {
        net::Ring *ring = nullptr;        ///< tenant Rx (virtio)
        net::BufferPool *pool = nullptr;  ///< tenant-side buffers
    };

    VSwitchHandler(sim::Platform &platform, cache::CoreId core,
                   std::shared_ptr<VSwitchTables> tables);

    /**
     * Route NIC @p dev's inbound packets to @p port. Multiple ports
     * per device are demultiplexed by flow hash (one container per
     * queue, as OVS would pin megaflows).
     */
    void addInboundRule(cache::DeviceId dev, TenantPort port);

    /** Route tenant traffic from @p dev back out through @p nic. */
    void addOutboundRule(cache::DeviceId dev, net::NicQueue *nic);

    Outcome process(net::Packet pkt, double now) override;

    std::uint64_t forwardDrops() const { return forward_drops_; }

  private:
    /** EMC + (maybe) dpcls lookup cost for @p flow. */
    double classify(std::uint64_t flow, std::uint64_t &inst);

    sim::Platform &platform_;
    cache::CoreId core_;
    std::shared_ptr<VSwitchTables> tables_;
    std::map<cache::DeviceId, std::vector<TenantPort>> inbound_;
    std::map<cache::DeviceId, net::NicQueue *> outbound_;
    std::uint64_t forward_drops_ = 0;
};

/** Firewall -> flow-stats -> NAPT service chain on one core. */
class NfChainHandler : public net::PacketHandler
{
  public:
    NfChainHandler(sim::Platform &platform, cache::CoreId core,
                   const std::string &name, std::uint64_t flow_count,
                   ForwardPort out);

    Outcome process(net::Packet pkt, double now) override;

  private:
    sim::Platform &platform_;
    cache::CoreId core_;
    sim::AddressSpace::Region firewall_rules_;
    sim::AddressSpace::Region flow_stats_;
    sim::AddressSpace::Region napt_;
    ForwardPort out_;
};

/** Networked Redis serving YCSB requests. */
class RedisHandler : public net::PacketHandler
{
  public:
    struct Config
    {
        std::uint64_t record_count = 1'000'000;
        std::uint32_t value_bytes = 1024;
        double read_fraction = 0.95; ///< YCSB-B by default
        std::uint32_t response_headroom_bytes = 64;
    };

    RedisHandler(sim::Platform &platform, cache::CoreId core,
                 const std::string &name, const Config &cfg,
                 net::BufferPool &tx_pool, ForwardPort out,
                 std::uint64_t seed);

    Outcome process(net::Packet pkt, double now) override;

    std::uint64_t responsesSent() const { return responses_; }
    std::uint64_t txPoolDrops() const { return tx_pool_drops_; }

  private:
    sim::Platform &platform_;
    cache::CoreId core_;
    Config cfg_;
    sim::AddressSpace::Region index_;
    sim::AddressSpace::Region values_;
    net::BufferPool &tx_pool_;
    ForwardPort out_;
    Rng rng_;
    std::uint64_t responses_ = 0;
    std::uint64_t tx_pool_drops_ = 0;
};

} // namespace iat::wl

#endif // IATSIM_WL_HANDLERS_HH
