/**
 * @file
 * ClusterFaultInjector: executes a ClusterFaultPlan against the
 * sharded world, entirely at epoch edges (DESIGN.md SS16).
 *
 * The injector is a set of pure schedule queries plus one stateful
 * coin. Every query -- is host s up at epoch e, does it run this
 * epoch, is the link a->b cut, what is the latency multiplier -- is
 * a function of (plan, epoch) alone, so any thread interleaving sees
 * the same answers. The one stateful piece, the frame-drop coin, is
 * drawn from a private splitmix64 stream advanced only on the
 * caller's thread at the submit barrier, in shard-id order; epoch
 * k's coin sequence is therefore a prefix of any longer run's, which
 * is what makes fault-plan fuzz failures shrinkable by epoch count.
 *
 * The injector implements cluster::FabricFaultHook so the Fabric
 * consults it per routed frame; the ClusterWorld consults the host
 * queries at its own barriers (delivery, run, heartbeat).
 */

#ifndef IATSIM_FAULT_CLUSTER_INJECTOR_HH
#define IATSIM_FAULT_CLUSTER_INJECTOR_HH

#include <cstdint>

#include "cluster/fabric.hh"
#include "fault/cluster_plan.hh"

namespace iat::fault {

/** Executes a ClusterFaultPlan; see file comment. */
class ClusterFaultInjector final : public cluster::FabricFaultHook
{
  public:
    ClusterFaultInjector(const ClusterFaultPlan &plan,
                         unsigned num_shards,
                         std::uint64_t trial_seed);

    /** Set the epoch the next onRoute() coins belong to. Called by
     *  the World at each barrier, on the caller's thread. */
    void beginEpoch(std::uint64_t epoch) { epoch_ = epoch; }

    /// @name Pure schedule queries (any thread, any order)
    /// @{
    /** False while @p shard is inside its crash window. */
    bool hostUp(unsigned shard, std::uint64_t epoch) const;

    /** Whether @p shard executes epoch @p epoch: false when crashed,
     *  and false for the frozen-out epochs of a slowdown window. */
    bool hostRuns(unsigned shard, std::uint64_t epoch) const;

    /** Whether shards @p a and @p b can exchange frames at @p epoch
     *  (false across the partition cut while it is active). */
    bool linkUp(unsigned a, unsigned b, std::uint64_t epoch) const;

    /** One-way latency multiplier at @p epoch (1.0 when healthy). */
    double latencyFactor(std::uint64_t epoch) const;
    /// @}

    /** FabricFaultHook: partition cut, drop coin, degraded latency.
     *  Must be called at the barrier, in deterministic order. */
    bool onRoute(const cluster::FabricFrame &frame,
                 double &latency_seconds) override;

    /** Account frames that were in flight to a crashed host and got
     *  discarded at the delivery barrier. */
    void noteCrashLoss(std::uint64_t frames)
    {
        crash_frames_lost_ += frames;
    }

    /** Account one host-epoch skipped (crashed or frozen out). */
    void noteSkippedEpoch() { ++host_epochs_skipped_; }

    /// @name Fault ledger (all folded into the world digest)
    /// @{
    std::uint64_t framesDroppedRandom() const
    {
        return frames_dropped_random_;
    }
    std::uint64_t framesDroppedPartition() const
    {
        return frames_dropped_partition_;
    }
    std::uint64_t crashFramesLost() const
    {
        return crash_frames_lost_;
    }
    std::uint64_t hostEpochsSkipped() const
    {
        return host_epochs_skipped_;
    }
    /// @}

    const ClusterFaultPlan &plan() const { return plan_; }

  private:
    ClusterFaultPlan plan_;
    unsigned num_shards_;
    std::uint64_t epoch_ = 0;
    std::uint64_t drop_state_; ///< splitmix64 coin stream

    std::uint64_t frames_dropped_random_ = 0;
    std::uint64_t frames_dropped_partition_ = 0;
    std::uint64_t crash_frames_lost_ = 0;
    std::uint64_t host_epochs_skipped_ = 0;
};

} // namespace iat::fault

#endif // IATSIM_FAULT_CLUSTER_INJECTOR_HH
