/**
 * @file
 * ClusterFaultInjector implementation.
 */

#include "fault/cluster_injector.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace iat::fault {

namespace {

/** Epoch-window membership; duration 0 = open-ended. */
bool
inWindow(std::uint64_t epoch, std::uint64_t start,
         std::uint64_t duration)
{
    if (epoch < start)
        return false;
    return duration == 0 || epoch < start + duration;
}

} // namespace

ClusterFaultInjector::ClusterFaultInjector(
    const ClusterFaultPlan &plan, unsigned num_shards,
    std::uint64_t trial_seed)
    : plan_(plan), num_shards_(num_shards)
{
    IAT_ASSERT(num_shards >= 1, "injector needs shards");
    // A distinct stream from every other consumer of the trial seed:
    // the coin sequence must not correlate with traffic generators.
    drop_state_ = (plan.seed ? plan.seed : trial_seed) ^ 0xc1a5f4u;
}

bool
ClusterFaultInjector::hostUp(unsigned shard,
                             std::uint64_t epoch) const
{
    if (plan_.crash_host < 0 ||
        static_cast<unsigned>(plan_.crash_host) != shard)
        return true;
    return !inWindow(epoch, plan_.crash_epoch, plan_.crash_recovery);
}

bool
ClusterFaultInjector::hostRuns(unsigned shard,
                               std::uint64_t epoch) const
{
    if (!hostUp(shard, epoch))
        return false;
    if (plan_.slow_host >= 0 &&
        static_cast<unsigned>(plan_.slow_host) == shard &&
        plan_.slow_factor > 1 &&
        inWindow(epoch, plan_.slow_epoch, plan_.slow_duration)) {
        return (epoch - plan_.slow_epoch) % plan_.slow_factor == 0;
    }
    return true;
}

bool
ClusterFaultInjector::linkUp(unsigned a, unsigned b,
                             std::uint64_t epoch) const
{
    if (plan_.partition_cut == 0 ||
        plan_.partition_cut >= num_shards_)
        return true;
    if (!inWindow(epoch, plan_.partition_epoch,
                  plan_.partition_duration))
        return true;
    return (a < plan_.partition_cut) == (b < plan_.partition_cut);
}

double
ClusterFaultInjector::latencyFactor(std::uint64_t epoch) const
{
    if (plan_.degrade_factor > 1.0 &&
        inWindow(epoch, plan_.degrade_epoch,
                 plan_.degrade_duration))
        return plan_.degrade_factor;
    return 1.0;
}

bool
ClusterFaultInjector::onRoute(const cluster::FabricFrame &frame,
                              double &latency_seconds)
{
    if (!linkUp(frame.src_shard, frame.dst_shard, epoch_)) {
        ++frames_dropped_partition_;
        return false;
    }
    if (plan_.drop_prob > 0.0 &&
        inWindow(epoch_, plan_.drop_epoch, plan_.drop_duration)) {
        // One coin per candidate frame, always drawn so the stream
        // stays aligned across runs that differ only in epoch count.
        const double u =
            static_cast<double>(splitmix64Next(drop_state_) >> 11) *
            0x1.0p-53;
        if (u < plan_.drop_prob) {
            ++frames_dropped_random_;
            return false;
        }
    }
    latency_seconds *= latencyFactor(epoch_);
    return true;
}

} // namespace iat::fault
