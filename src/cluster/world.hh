/**
 * @file
 * The sharded multi-host world: N ShardHosts stitched by a Fabric,
 * stepped in epoch-synchronized quanta, with the cluster scheduler
 * migrating batch tenants between hosts at epoch barriers.
 *
 * One epoch is the unit of parallelism and of determinism:
 *
 *   1. barrier: deliver every fabric frame due at this epoch edge
 *      into its destination host's fabric NIC (injectRemote); frames
 *      due at a crashed host are discarded (and accounted) instead;
 *   2. parallel: each shard that the fault schedule says runs this
 *      epoch runs its engine on one of T worker threads (shard i on
 *      worker i % T, each worker stepping its shards in increasing
 *      id order); a crashed or frozen-out host's clock simply does
 *      not advance;
 *   3. barrier: collect every shard's outbox into the fabric, in
 *      shard-id order, stamping epoch-edge-aligned delivery times
 *      (the fault hook drops/degrades frames here, still in
 *      deterministic order);
 *   4. barrier: update heartbeats, publish per-host stream records,
 *      land finished migrations (cold-cache attach on the
 *      destination), evaluate cluster health watchdogs, and let the
 *      TenantScheduler act on per-host status.
 *
 * Steps 1, 3 and 4 run on the caller's thread; step 2 spawns and
 * joins worker threads each epoch, so thread creation/joining is the
 * only synchronization -- no locks anywhere in simulation code, and
 * the join gives the happens-before edge ThreadSanitizer wants.
 * Because every cross-shard interaction happens at a barrier in a
 * fixed order -- including every fault decision and every coin the
 * injector flips -- results are bit-identical for any thread count,
 * with or without an active ClusterFaultPlan.
 *
 * Migration is never free (DESIGN.md SS16): a migrating tenant
 * detaches immediately, its state transfer travels as real frames on
 * the fabric (contending with tenant traffic, droppable by faults),
 * and only after migration_epochs does it attach on the destination
 * -- with cold LLC/L2, so the warmup misses show up in the
 * destination's gauges and the transfer in fabric occupancy.
 *
 * Heartbeats model the control plane living beside shard 0: host s
 * is "heard" at a barrier iff it ran the epoch and the fabric link
 * 0<->s was up. The Failover policy and the cluster health watchdogs
 * both consume the resulting heartbeat ages, so a partitioned host
 * looks exactly like a dead one until the cut heals -- which is why
 * Failover backs off when too many hosts go silent at once.
 */

#ifndef IATSIM_CLUSTER_WORLD_HH
#define IATSIM_CLUSTER_WORLD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fabric.hh"
#include "cluster/scheduler.hh"
#include "cluster/shard.hh"
#include "fault/cluster_injector.hh"
#include "fault/cluster_plan.hh"
#include "obs/health.hh"
#include "util/stats.hh"

namespace iat::obs::stream {
class StreamDispatcher;
} // namespace iat::obs::stream

namespace iat::cluster {

/** The whole cluster's knobs. */
struct ClusterConfig
{
    unsigned shards = 2;
    /** Worker threads for step 2; 0 = hardware concurrency. The
     *  effective count is clamped to [1, shards]. */
    unsigned threads = 1;
    /** Epoch length; must be a multiple of the engine quantum. */
    double epoch_seconds = 500e-6;

    FabricConfig fabric;
    SchedulerConfig scheduler;
    /** Batch tenants to create and place across the cluster. */
    unsigned batch_tenants = 2;

    /** Cluster fault schedule; default (any() == false) builds no
     *  injector and adds zero overhead. Seed 0 defers to shard.seed
     *  so a fault campaign reseeds with the trial. */
    fault::ClusterFaultPlan fault;

    /** Cluster-scope health watchdog thresholds; host_down fires at
     *  the scheduler's dead_after_epochs. */
    obs::ClusterHealthConfig health;

    /** State-transfer frames one migration puts on the fabric. */
    unsigned migration_frames = 64;
    /** Epochs a migration spends in transit before the cold attach
     *  on the destination (clamped to >= 1). */
    std::uint64_t migration_epochs = 4;

    ShardConfig shard;
};

/** The N-host world; see file comment. */
class ClusterWorld
{
  public:
    explicit ClusterWorld(const ClusterConfig &cfg);
    ~ClusterWorld();

    ClusterWorld(const ClusterWorld &) = delete;
    ClusterWorld &operator=(const ClusterWorld &) = delete;

    /** Advance the cluster by ceil(seconds / epoch) epochs. */
    void run(double seconds);

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    ShardHost &shard(unsigned i) { return *shards_[i]; }
    Fabric &fabric() { return fabric_; }
    TenantScheduler &scheduler() { return scheduler_; }
    const ClusterConfig &config() const { return cfg_; }

    /** Worker threads step 2 will actually use. */
    unsigned workerThreads() const { return threads_; }

    /** Epochs completed so far. */
    std::uint64_t epochs() const { return epoch_; }

    /** Cluster time (every shard's clock agrees at the barrier). */
    double now() const
    {
        return static_cast<double>(epoch_) * cfg_.epoch_seconds;
    }

    const std::vector<BatchTenant> &batchTenants() const
    {
        return batch_;
    }

    /**
     * Stream every host's records into @p dispatcher at each barrier
     * (nullptr detaches) -- the cluster-collector feed. Records
     * carry a "host" member so one collector can tell hosts apart;
     * cluster health transitions are published here too.
     */
    void setDispatcher(obs::stream::StreamDispatcher *dispatcher)
    {
        dispatcher_ = dispatcher;
        health_->setPublisher(dispatcher);
    }

    /** The fault injector; nullptr when the plan is empty. */
    const fault::ClusterFaultInjector *injector() const
    {
        return injector_.get();
    }

    /** Cluster health watchdogs (always present). */
    const obs::ClusterHealthMonitor &health() const
    {
        return *health_;
    }

    /** Epochs since host @p s was last heard by the control plane. */
    std::uint64_t heartbeatAge(unsigned s) const
    {
        return epoch_ - last_heartbeat_epoch_[s];
    }

    /** Migrations whose transfer finished and tenant re-attached. */
    std::uint64_t migrationArrivals() const
    {
        return migration_arrivals_;
    }

    /** Migrations currently in transit on the fabric. */
    std::size_t migrationsInTransit() const
    {
        return pending_.size();
    }

    /**
     * Command a migration of batch tenant @p tenant to shard @p to
     * at the next barrier semantics (detach now, transfer frames on
     * the fabric, cold attach after the transit window). Returns
     * false -- with no side effects -- when the move is invalid:
     * unknown ids, tenant already there or in transit, or no free
     * capacity on the destination.
     */
    bool requestMigration(std::size_t tenant, unsigned to);

    /** Worst host-side remote p99 (Rx-ring wait + service) over all
     *  hosts, seconds -- the campaign metric the migration demo
     *  improves. See ShardHost::hostLatency(). */
    double remoteP99() const;

    /** Deterministic fingerprint of the whole cluster: every shard's
     *  digest plus fabric/fault/migration/health counters and the
     *  migration log. */
    std::string digest() const;

  private:
    /** One migration's landing, scheduled for attach_epoch. */
    struct PendingAttach
    {
        std::size_t tenant = 0;
        unsigned to = 0;
        std::uint64_t attach_epoch = 0;
    };

    void beginMigration(const Migration &m);
    void processArrivals();

    ClusterConfig cfg_;
    unsigned threads_;
    std::vector<std::unique_ptr<ShardHost>> shards_;
    Fabric fabric_;
    TenantScheduler scheduler_;
    std::unique_ptr<fault::ClusterFaultInjector> injector_;
    std::unique_ptr<obs::ClusterHealthMonitor> health_;

    std::vector<BatchTenant> batch_;
    std::vector<unsigned> batch_slot_; ///< tenant -> slot on its host
    std::vector<PendingAttach> pending_; ///< transfers in flight
    std::uint64_t migration_arrivals_ = 0;

    std::uint64_t epoch_ = 0;
    std::vector<std::uint64_t> last_heartbeat_epoch_; ///< per shard
    std::vector<Ewma> load_ewma_; ///< smoothed scheduler load feed
    obs::stream::StreamDispatcher *dispatcher_ = nullptr;
    std::vector<std::size_t> published_; ///< per shard, records sent
};

} // namespace iat::cluster

#endif // IATSIM_CLUSTER_WORLD_HH
