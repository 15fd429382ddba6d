/**
 * @file
 * ClusterWorld implementation.
 */

#include "cluster/world.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "obs/stream/exporter.hh"
#include "util/logging.hh"

namespace iat::cluster {

namespace {

/** Per-host load the scheduler balances: DRAM pressure is the
 *  cross-tenant contention channel, LLC misses the leading edge. */
double
hostLoad(ShardHost &shard)
{
    return shard.gauge("dram.utilization") +
           0.5 * shard.gauge("llc.miss_rate");
}

unsigned
resolveThreads(unsigned requested, unsigned shards)
{
    unsigned t = requested;
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    return std::clamp(t, 1u, shards);
}

/** Flow-id namespace for migration state-transfer frames; keeps
 *  them distinct from tenant traffic in sink bookkeeping. */
constexpr std::uint64_t kMigrationFlowBase = 0x4d19'0000ull;

/** Size of each migration state-transfer frame. */
constexpr std::uint32_t kMigrationFrameBytes = 1500;

} // namespace

ClusterWorld::ClusterWorld(const ClusterConfig &cfg)
    : cfg_(cfg), threads_(resolveThreads(cfg.threads, cfg.shards)),
      fabric_(cfg.shards, cfg.fabric, cfg.epoch_seconds),
      scheduler_(cfg.scheduler, cfg.shards, cfg.shard.batch_slots)
{
    IAT_ASSERT(cfg.shards >= 1, "cluster needs at least one shard");
    IAT_ASSERT(cfg.epoch_seconds > 0.0, "epoch must be positive");

    for (unsigned s = 0; s < cfg.shards; ++s)
        shards_.push_back(
            std::make_unique<ShardHost>(s, cfg.shards, cfg.shard));
    published_.assign(cfg.shards, 0);
    last_heartbeat_epoch_.assign(cfg.shards, 0);

    // Faults are pay-for-what-you-use: an empty plan builds no
    // injector and leaves the fabric hook null.
    if (cfg.fault.any()) {
        injector_ = std::make_unique<fault::ClusterFaultInjector>(
            cfg.fault, cfg.shards, cfg.shard.seed);
        fabric_.setFaultHook(injector_.get());
    }
    // The watchdog's host_down threshold is the scheduler's: a host
    // Failover evacuates is exactly a host the watchdog calls down.
    health_ = std::make_unique<obs::ClusterHealthMonitor>(
        cfg.health, cfg.scheduler.dead_after_epochs);

    // The epoch must land exactly on quantum boundaries or shard
    // clocks would drift from the fabric's epoch-edge arithmetic.
    const double quantum =
        shards_[0]->platform().config().quantum_seconds;
    const double quanta = cfg.epoch_seconds / quantum;
    IAT_ASSERT(std::abs(quanta - std::round(quanta)) < 1e-6,
               "epoch (%g s) must be a multiple of the quantum (%g s)",
               cfg.epoch_seconds, quantum);

    batch_.resize(cfg.batch_tenants);
    for (unsigned t = 0; t < cfg.batch_tenants; ++t)
        batch_[t].name = "batch" + std::to_string(t);
    const std::vector<unsigned> placed =
        scheduler_.placeInitial(cfg.batch_tenants);
    batch_slot_.resize(cfg.batch_tenants);
    for (unsigned t = 0; t < cfg.batch_tenants; ++t) {
        ShardHost &host = *shards_[placed[t]];
        const unsigned slot = host.freeBatchSlot();
        host.attachBatch(slot, &batch_[t]);
        batch_slot_[t] = slot;
    }
}

ClusterWorld::~ClusterWorld() = default;

void
ClusterWorld::run(double seconds)
{
    const auto epochs = static_cast<std::uint64_t>(
        std::ceil(seconds / cfg_.epoch_seconds - 1e-9));
    for (std::uint64_t e = 0; e < epochs; ++e) {
        const double now =
            static_cast<double>(epoch_) * cfg_.epoch_seconds;
        if (injector_)
            injector_->beginEpoch(epoch_);

        // 1. Deliver frames due at this edge, in shard-id order.
        // A crashed host's NIC is gone: frames due there are lost
        // (the fabric already counted them delivered, so the
        // conservation invariant is unaffected).
        for (auto &shard : shards_) {
            std::vector<FabricFrame> due =
                fabric_.collectDue(shard->id(), now);
            if (injector_ &&
                !injector_->hostUp(shard->id(), epoch_)) {
                injector_->noteCrashLoss(due.size());
                continue;
            }
            shard->injectFabric(due, now);
        }

        // Which hosts execute this epoch, decided up front on the
        // caller's thread so workers only read the verdicts.
        std::vector<char> runs(shards_.size(), 1);
        if (injector_) {
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                runs[s] =
                    injector_->hostRuns(static_cast<unsigned>(s),
                                        epoch_)
                        ? 1
                        : 0;
                if (!runs[s])
                    injector_->noteSkippedEpoch();
            }
        }

        // 2. Run every scheduled shard's epoch; shard i on worker
        // i % T, each worker walking its shards in increasing id.
        // T = 1 runs inline -- the reference interleaving the
        // threaded path must reproduce bit for bit. A skipped
        // host's clock freezes: it re-joins behind cluster time and
        // stays behind (the crash interval is simply lost to it).
        if (threads_ == 1 || shards_.size() == 1) {
            for (std::size_t s = 0; s < shards_.size(); ++s)
                if (runs[s])
                    shards_[s]->runEpoch(cfg_.epoch_seconds);
        } else {
            std::vector<std::thread> workers;
            workers.reserve(threads_);
            for (unsigned w = 0; w < threads_; ++w) {
                workers.emplace_back([this, w, &runs] {
                    for (std::size_t s = w; s < shards_.size();
                         s += threads_)
                        if (runs[s])
                            shards_[s]->runEpoch(
                                cfg_.epoch_seconds);
                });
            }
            for (auto &worker : workers)
                worker.join();
        }

        // 3. Route this epoch's departures, in shard-id order (the
        // fault hook drops/degrades here, same thread, same order).
        for (auto &shard : shards_)
            fabric_.submit(shard->takeOutbox());

        ++epoch_;

        // 4a. Heartbeats: host s was heard this epoch iff it ran
        // and the control-plane link (beside shard 0) was up.
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const bool heard =
                runs[s] &&
                (!injector_ ||
                 injector_->linkUp(0, static_cast<unsigned>(s),
                                   epoch_ - 1));
            if (heard)
                last_heartbeat_epoch_[s] = epoch_;
        }

        // 4b. Publish new records.
        if (dispatcher_ != nullptr) {
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                const auto &records = shards_[s]->records();
                for (std::size_t r = published_[s];
                     r < records.size(); ++r)
                    dispatcher_->publish(records[r]);
                published_[s] = records.size();
            }
        }

        // 4c. Land migrations whose transit window elapsed (cold
        // attach on the destination), before the scheduler acts.
        processArrivals();

        // Smooth the per-epoch gauges before the scheduler sees them:
        // a single epoch's load is noisy at this timescale, and a raw
        // feed makes the migrator ping-pong tenants across a margin
        // the noise alone can cross. (A skipped host's gauges are
        // frozen, so its EWMA coasts on the last live reading.)
        if (load_ewma_.empty())
            load_ewma_.resize(shards_.size(), Ewma(0.2));
        std::vector<HostStatus> status(shards_.size());
        std::vector<std::uint64_t> ages(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            load_ewma_[s].add(hostLoad(*shards_[s]));
            status[s].load = load_ewma_[s].value();
            status[s].heartbeat_age =
                epoch_ - last_heartbeat_epoch_[s];
            ages[s] = status[s].heartbeat_age;
        }

        // 4d. Cluster watchdogs, then the scheduler (its verdicts
        // are visible to next epoch's health evaluation, not this
        // one -- a fixed, deterministic ordering).
        health_->evaluate(
            epoch_, static_cast<double>(epoch_) * cfg_.epoch_seconds,
            ages, scheduler_.migrations().size());
        for (const Migration &m : scheduler_.step(epoch_, status))
            beginMigration(m);
    }
}

void
ClusterWorld::beginMigration(const Migration &m)
{
    BatchTenant *tenant =
        shards_[m.from]->detachBatch(batch_slot_[m.tenant]);
    IAT_ASSERT(tenant == &batch_[m.tenant],
               "migration moved the wrong tenant");
    scheduler_.setLocked(m.tenant, true);
    batch_slot_[m.tenant] =
        shards_[m.to]->batchSlots(); // sentinel: in transit

    // The tenant's state travels as real frames: they occupy the
    // fabric, land in the destination's DDIO ways and Rx ring, get
    // serviced by its sink core -- and can be dropped or delayed by
    // an active fault plan like any other traffic.
    const double now =
        static_cast<double>(epoch_) * cfg_.epoch_seconds;
    const std::uint64_t window =
        std::max<std::uint64_t>(1, cfg_.migration_epochs);
    const unsigned frames = std::max(1u, cfg_.migration_frames);
    std::vector<FabricFrame> transfer;
    transfer.reserve(frames);
    for (unsigned k = 0; k < frames; ++k) {
        FabricFrame f;
        f.src_shard = m.from;
        f.dst_shard = m.to;
        f.bytes = kMigrationFrameBytes;
        f.flow = kMigrationFlowBase + m.tenant;
        f.depart = now + static_cast<double>(k) *
                             (static_cast<double>(window) *
                              cfg_.epoch_seconds) /
                             static_cast<double>(frames);
        transfer.push_back(f);
    }
    fabric_.submit(transfer);

    PendingAttach pending;
    pending.tenant = m.tenant;
    pending.to = m.to;
    pending.attach_epoch = epoch_ + window;
    pending_.push_back(pending);
}

void
ClusterWorld::processArrivals()
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->attach_epoch > epoch_) {
            ++it;
            continue;
        }
        ShardHost &to = *shards_[it->to];
        const unsigned slot = to.freeBatchSlot();
        IAT_ASSERT(slot < to.batchSlots(),
                   "migration arrived at a full host");
        to.attachBatchCold(slot, &batch_[it->tenant]);
        batch_slot_[it->tenant] = slot;
        scheduler_.setLocked(it->tenant, false);
        ++migration_arrivals_;
        it = pending_.erase(it);
    }
}

bool
ClusterWorld::requestMigration(std::size_t tenant, unsigned to)
{
    if (tenant >= batch_.size() || to >= shards_.size())
        return false;
    if (batch_slot_[tenant] >= shards_[0]->batchSlots())
        return false; // in transit
    if (scheduler_.shardOf(tenant) == to ||
        scheduler_.freeSlots(to) == 0)
        return false;
    beginMigration(scheduler_.forceMigration(tenant, to, epoch_));
    return true;
}

double
ClusterWorld::remoteP99() const
{
    // Host-side latency, not end-to-end: the fabric band plus the
    // epoch-edge alignment are fixed modeling constants placement
    // cannot move, and they would drown the queue/service component
    // the scheduler actually improves.
    double worst = 0.0;
    for (const auto &shard : shards_)
        worst = std::max(worst,
                         shard->hostLatency().percentile(0.99));
    return worst;
}

std::string
ClusterWorld::digest() const
{
    std::ostringstream os;
    // Deliberately excludes the thread count: digests from runs with
    // different T must compare equal (the bit-exactness contract).
    os << "epochs=" << epoch_;
    os << " fabric.routed=" << fabric_.framesRouted()
       << " fabric.bytes=" << fabric_.bytesRouted()
       << " fabric.delivered=" << fabric_.framesDelivered()
       << " fabric.dropped=" << fabric_.framesDropped();
    if (injector_) {
        os << " fault.hash="
           << injector_->plan().hash(cfg_.shard.seed)
           << " fault.drop.rand="
           << injector_->framesDroppedRandom()
           << " fault.drop.part="
           << injector_->framesDroppedPartition()
           << " fault.crash.lost=" << injector_->crashFramesLost()
           << " fault.skipped=" << injector_->hostEpochsSkipped();
    }
    os << " arrivals=" << migration_arrivals_
       << " pending=" << pending_.size()
       << " evac=" << scheduler_.evacuations()
       << " backoff=" << scheduler_.partitionBackoffs()
       << " health=" << health_->transitions();
    os << " migrations=";
    const auto &migrations = scheduler_.migrations();
    for (std::size_t i = 0; i < migrations.size(); ++i) {
        if (i)
            os << ',';
        os << migrations[i].tenant << ':' << migrations[i].from
           << ">" << migrations[i].to << '@' << migrations[i].epoch;
        if (migrations[i].evacuation)
            os << '!';
    }
    for (const auto &shard : shards_)
        os << '\n' << shard->digest();
    return os.str();
}

} // namespace iat::cluster
