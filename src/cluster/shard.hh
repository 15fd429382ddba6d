/**
 * @file
 * One host of the sharded world: a full Platform (own SlicedLlc,
 * DRAM, RDT surface), an Engine, an agg_testpmd packet world, a
 * fabric port NIC, batch-tenant executors, its own IAT daemon (built
 * by core::makePolicy and ticked by fault::attachPolicy, like every
 * single-host program), and a per-host metrics registry with platform
 * telemetry -- everything a single-socket trial owns today, times N.
 *
 * A shard is single-threaded by construction: during an epoch,
 * exactly one thread (whichever worker the World assigned) runs this
 * shard's engine, and everything the shard touches -- platform,
 * rings, daemon, outbox, metrics -- is owned by the shard. Cross-
 * shard traffic enters only between epochs via injectFabric() and
 * leaves only via the outbox the World collects at the barrier, so
 * thread assignment can never change simulation results.
 *
 * The fabric port reuses the NIC model end to end: ingress frames
 * take NicQueue::injectRemote() (pool acquire, DMA write through the
 * DDIO ways, Rx ring, MAC drop accounting) and a dedicated sink core
 * services the ring and transmits, so remote traffic contends for
 * the host's LLC exactly like local traffic -- the effect the paper
 * says single-socket allocators forget.
 */

#ifndef IATSIM_CLUSTER_SHARD_HH
#define IATSIM_CLUSTER_SHARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fabric.hh"
#include "core/daemon.hh"
#include "core/policy.hh"
#include "net/nic.hh"
#include "obs/metrics.hh"
#include "obs/stream/record.hh"
#include "scenarios/agg_testpmd.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "sim/telemetry.hh"
#include "util/stats.hh"

namespace iat::cluster {

/** Per-host knobs (identical across shards; seeds derive per host). */
struct ShardConfig
{
    unsigned containers = 2;      ///< testpmd tenants per host
    unsigned batch_slots = 2;     ///< migratable-tenant slots per host
    std::uint64_t batch_ws_bytes = 4u << 20; ///< batch working set

    /**
     * Per-host peak memory bandwidth, GB/s. Cluster nodes are
     * modeled with two DDR4 channels (vs the single-socket Table I
     * machine's six) so that placement-relevant DRAM contention
     * appears at simulation-tractable load levels.
     */
    double dram_gbps = 16.0;

    double rate_pps = 1.5e6;      ///< offered local rate per NIC
    std::uint32_t frame_bytes = 64;
    std::uint64_t flows = 16;
    std::uint32_t ring_entries = 256;

    double remote_rate_pps = 0.0; ///< fabric egress rate; 0 = none

    std::uint64_t seed = 1;
};

/** A batch tenant's mutable execution state, owned by the World and
 *  executed by whichever shard currently hosts it. */
struct BatchTenant
{
    std::string name;
    std::uint64_t offset = 0;  ///< working-set walk position
    std::uint64_t touches = 0; ///< spans touched (digest counter)
};

/** One host; see file comment. */
class ShardHost
{
  public:
    ShardHost(unsigned id, unsigned num_shards,
              const ShardConfig &cfg);
    ~ShardHost();

    ShardHost(const ShardHost &) = delete;
    ShardHost &operator=(const ShardHost &) = delete;

    unsigned id() const { return id_; }

    /** Run this shard's engine for one epoch. Called by exactly one
     *  worker thread per epoch. */
    void runEpoch(double epoch_seconds) { engine_.run(epoch_seconds); }

    /** Deliver fabric frames due at epoch start @p now (barrier). */
    void injectFabric(const std::vector<FabricFrame> &frames,
                      double now);

    /** Move this epoch's departing frames out (barrier). */
    std::vector<FabricFrame> takeOutbox();

    /// @name Batch-tenant slots (driven by the World's scheduler)
    /// @{
    unsigned batchSlots() const { return cfg_.batch_slots; }

    /** Host @p tenant in @p slot; also adds its registry record. */
    void attachBatch(unsigned slot, BatchTenant *tenant);

    /**
     * attachBatch() for a tenant arriving by migration: additionally
     * evicts the slot's working-set lines from this host's LLC and
     * flushes the slot core's L2, so the newcomer starts with cold
     * caches and pays real warmup misses -- migration is never free.
     */
    void attachBatchCold(unsigned slot, BatchTenant *tenant);

    /** Release @p slot; removes the registry record. Returns the
     *  tenant that was hosted. */
    BatchTenant *detachBatch(unsigned slot);

    /** Lowest free slot; batchSlots() when full. */
    unsigned freeBatchSlot() const;

    cache::CoreId batchCore(unsigned slot) const;
    /// @}

    /// @name Introspection
    /// @{
    sim::Platform &platform() { return platform_; }
    sim::Engine &engine() { return engine_; }
    scenarios::AggTestPmdWorld &world() { return *world_; }
    core::IatDaemon &daemon() { return *policy_->daemon(); }
    net::NicQueue &fabricNic() { return *fabric_nic_; }
    obs::MetricsRegistry &metrics() { return metrics_; }
    const ShardConfig &config() const { return cfg_; }

    /** Read a telemetry gauge by name; 0 when absent/unbound. */
    double gauge(const std::string &name) const;

    /** Frames the fabric sink serviced and transmitted back. */
    std::uint64_t remotePackets() const { return sink_.packets; }

    /** Remote-path latency (fabric + queue + service), seconds. */
    const LatencyHistogram &remoteLatency() const
    {
        return fabric_nic_->latency();
    }

    /**
     * Host-side remote latency (Rx-ring wait + service), seconds --
     * the component placement can actually change. End-to-end remote
     * latency is dominated by the epoch-edge delivery alignment (a
     * fixed modeling constant), so the scheduler demo reads this one.
     */
    const LatencyHistogram &hostLatency() const { return host_lat_; }

    /** Per-host stream records (header + one sample per epoch). */
    const std::vector<obs::stream::StreamRecord> &records() const
    {
        return records_;
    }

    /** Deterministic fingerprint of every counter that matters:
     *  identical across runs iff the simulation was bit-identical. */
    std::string digest() const;
    /// @}

  private:
    /** Generates departing fabric frames during the epoch. */
    class FabricSource final : public sim::Runnable
    {
      public:
        FabricSource(ShardHost &host, const net::TrafficConfig &cfg,
                     std::uint64_t seed);
        void runQuantum(double t_start, double dt) override;

      private:
        ShardHost &host_;
        net::TrafficGen gen_;
        double next_departure_;
        unsigned dst_cursor_ = 0;
    };

    /** Services the fabric NIC's Rx ring on a dedicated core. */
    class FabricSink final : public sim::Runnable
    {
      public:
        explicit FabricSink(ShardHost &host) : host_(host) {}
        void runQuantum(double t_start, double dt) override;

        std::uint64_t packets = 0;

      private:
        ShardHost &host_;
        double free_at_ = 0.0;
        std::uint64_t state_cursor_ = 0;
    };

    /** Executes the batch tenants currently placed on this host. */
    class BatchRunnable final : public sim::Runnable
    {
      public:
        explicit BatchRunnable(ShardHost &host) : host_(host) {}
        void runQuantum(double t_start, double dt) override;

      private:
        ShardHost &host_;
    };

    void onEpochEnd(double now);
    cache::CoreId fabricCore() const;

    unsigned id_;
    unsigned num_shards_;
    ShardConfig cfg_;

    sim::Platform platform_;
    sim::Engine engine_;
    std::unique_ptr<scenarios::AggTestPmdWorld> world_;
    std::unique_ptr<net::NicQueue> fabric_nic_;
    std::unique_ptr<core::Policy> policy_; ///< always PolicyKind::Iat

    std::unique_ptr<FabricSource> source_; ///< null without egress
    FabricSink sink_;
    BatchRunnable batch_;

    std::vector<FabricFrame> outbox_;
    std::vector<BatchTenant *> slots_;           ///< per batch slot
    std::vector<sim::AddressSpace::Region> batch_regions_;
    sim::AddressSpace::Region sink_state_; ///< sink bookkeeping walk

    obs::MetricsRegistry metrics_;
    std::unique_ptr<sim::PlatformTelemetry> telemetry_;
    std::vector<obs::stream::StreamRecord> records_;
    LatencyHistogram host_lat_; ///< ring wait + service per frame
};

} // namespace iat::cluster

#endif // IATSIM_CLUSTER_SHARD_HH
