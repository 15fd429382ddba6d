/**
 * @file
 * Seeded scenario fuzzer implementation.
 */

#include "check/fuzz.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "check/diff.hh"
#include "check/invariants.hh"
#include "check/policy_check.hh"
#include "cluster/world.hh"
#include "core/daemon.hh"
#include "core/tenant.hh"
#include "rdt/msr.hh"
#include "rdt/msr_bus.hh"
#include "sim/platform.hh"
#include "util/rng.hh"

namespace iat::check {

namespace {

/** Random valid consecutive CBM within @p num_ways. */
cache::WayMask
randomCbm(Rng &rng, unsigned num_ways)
{
    const unsigned count =
        1 + static_cast<unsigned>(rng.below(num_ways));
    const unsigned lsb =
        static_cast<unsigned>(rng.below(num_ways - count + 1));
    return cache::WayMask::fromRange(lsb, count);
}

std::string
prefixed(const char *prefix, std::uint64_t iter, std::string what)
{
    return std::string(prefix) + " iteration " +
           std::to_string(iter) + ": " + std::move(what);
}

} // namespace

std::string
fuzzLlcTrial(std::uint64_t seed, std::uint64_t ops,
             std::uint64_t sabotage_op)
{
    Rng rng(seed);

    cache::CacheGeometry geom;
    geom.num_slices = 1 + static_cast<unsigned>(rng.below(4));
    static constexpr unsigned kSets[] = {16, 32, 64, 128};
    geom.sets_per_slice = kSets[rng.below(4)];
    geom.num_ways = 4 + static_cast<unsigned>(rng.below(13));
    const unsigned cores = 2 + static_cast<unsigned>(rng.below(3));

    cache::SlicedLlc real(geom, cores);
    DiffHarness diff(real, 1024);

    cache::PrivateCacheGeometry pgeom;
    pgeom.num_sets = 64;
    pgeom.num_ways = 4 + static_cast<unsigned>(rng.below(5));
    PrivateCacheDiff pdiff(pgeom, 512);

    // Randomized starting configuration, applied through the real
    // model so the shadow mirrors every step of it too.
    constexpr unsigned kClosUsed = 4;
    constexpr unsigned kRmidsUsed = 8;
    for (unsigned clos = 0; clos < kClosUsed; ++clos)
        real.setClosMask(static_cast<cache::ClosId>(clos),
                         randomCbm(rng, geom.num_ways));
    for (unsigned core = 0; core < cores; ++core) {
        real.assocCoreClos(static_cast<cache::CoreId>(core),
                           static_cast<cache::ClosId>(
                               rng.below(kClosUsed)));
        real.assocCoreRmid(static_cast<cache::CoreId>(core),
                           static_cast<cache::RmidId>(
                               1 + rng.below(kRmidsUsed)));
    }
    const unsigned ddio0 =
        1 + static_cast<unsigned>(
                rng.below(std::min(6u, geom.num_ways - 1)));
    real.setDdioMask(
        cache::WayMask::fromRange(geom.num_ways - ddio0, ddio0));

    const std::uint64_t universe =
        std::max<std::uint64_t>(1024, 2 * geom.totalLines());
    const auto randLine = [&] {
        return static_cast<cache::Addr>(rng.below(universe) *
                                        geom.line_bytes);
    };
    const auto randCore = [&] {
        return static_cast<cache::CoreId>(rng.below(cores));
    };
    const auto randDev = [&] {
        return static_cast<cache::DeviceId>(
            rng.below(cache::SlicedLlc::numDevices));
    };
    const auto randType = [&] {
        return rng.below(100) < 40 ? cache::AccessType::Write
                                   : cache::AccessType::Read;
    };

    cache::BatchCounts batch_counts;
    cache::DmaCounts dma_counts;
    std::vector<cache::CoreOp> batch;

    for (std::uint64_t i = 0; i < ops; ++i) {
        if (sabotage_op != 0 && i + 1 == sabotage_op)
            diff.sabotageNextOp();

        const std::uint64_t pick = rng.below(100);
        if (pick < 45) {
            // Batched core ops: the production hot path.
            batch.clear();
            const std::size_t n = 1 + rng.below(16);
            for (std::size_t k = 0; k < n; ++k) {
                cache::CoreOp op;
                op.addr = randLine();
                op.type = randType();
                op.writeback = rng.below(100) < 15;
                batch.push_back(op);
            }
            real.accessBatch(randCore(), batch.data(), batch.size(),
                             batch_counts);
        } else if (pick < 60) {
            if (rng.below(100) < 20)
                real.writebackFromCore(randCore(), randLine());
            else
                real.coreAccess(randCore(), randLine(), randType());
        } else if (pick < 73) {
            real.ddioWriteRange(randLine(),
                                1 + static_cast<std::uint32_t>(
                                        rng.below(32)),
                                randDev(), dma_counts);
        } else if (pick < 81) {
            real.ddioWrite(randLine(), randDev());
        } else if (pick < 89) {
            if (rng.below(2))
                real.deviceRead(randLine(), randDev());
            else
                real.deviceReadRange(
                    randLine(),
                    1 + static_cast<std::uint32_t>(rng.below(32)),
                    randDev(), dma_counts);
        } else if (pick < 93) {
            real.invalidate(randLine());
        } else if (pick < 96) {
            // Reconfiguration mid-stream.
            switch (rng.below(6)) {
              case 0:
                real.setClosMask(static_cast<cache::ClosId>(
                                     rng.below(kClosUsed)),
                                 randomCbm(rng, geom.num_ways));
                break;
              case 1:
                real.assocCoreClos(randCore(),
                                   static_cast<cache::ClosId>(
                                       rng.below(kClosUsed)));
                break;
              case 2:
                real.assocCoreRmid(randCore(),
                                   static_cast<cache::RmidId>(
                                       1 + rng.below(kRmidsUsed)));
                break;
              case 3: {
                const unsigned d =
                    1 + static_cast<unsigned>(
                            rng.below(std::min(6u, geom.num_ways - 1)));
                real.setDdioMask(cache::WayMask::fromRange(
                    geom.num_ways - d, d));
                break;
              }
              case 4:
                real.setDeviceDdioMask(randDev(),
                                       randomCbm(rng, geom.num_ways));
                break;
              default:
                real.clearDeviceDdioMask(randDev());
                break;
            }
        } else if (pick < 97) {
            real.setDdioEnabled(rng.below(2) != 0);
        } else if (pick < 99) {
            // Private-cache burst on the side diff.
            const std::size_t n = 1 + rng.below(8);
            for (std::size_t k = 0; k < n; ++k) {
                const auto addr = static_cast<cache::Addr>(
                    rng.below(4 * pgeom.num_sets * pgeom.num_ways) *
                    pgeom.line_bytes);
                pdiff.access(addr, randType());
            }
            if (rng.below(100) < 2)
                pdiff.invalidateAll();
        } else {
            real.flushAll();
        }

        if (diff.report().mismatches != 0)
            return prefixed("llc", i + 1,
                            diff.report().first_mismatch);
        if (pdiff.report().mismatches != 0)
            return prefixed("private", i + 1,
                            pdiff.report().first_mismatch);
    }

    diff.deepCompare();
    pdiff.deepCompare();
    if (diff.report().mismatches != 0)
        return prefixed("llc", ops, diff.report().first_mismatch);
    if (pdiff.report().mismatches != 0)
        return prefixed("private", ops,
                        pdiff.report().first_mismatch);
    return {};
}

namespace {

/**
 * Seeded MSR fault hook for world trials: multiplicative-free
 * additive noise on monitoring-counter reads and transient rejection
 * of writes, each with its own probability. Deliberately simpler
 * than fault::FaultInjector -- the fuzzer wants adversarial inputs,
 * not a calibrated campaign.
 */
class FuzzMsrHook final : public rdt::MsrFaultHook
{
  public:
    FuzzMsrHook(std::uint64_t seed, double read_noise,
                double write_reject)
        : rng_(seed), read_noise_(read_noise),
          write_reject_(write_reject)
    {
    }

    std::uint64_t
    onRead(cache::CoreId, std::uint32_t addr,
           std::uint64_t value) override
    {
        if (addr == rdt::msr_addr::IA32_QM_CTR &&
            read_noise_ > 0.0 && rng_.uniform() < read_noise_) {
            // 48-bit counter arithmetic, like real RDT counters.
            return (value + rng_.below(1ull << 24)) &
                   ((1ull << 48) - 1);
        }
        return value;
    }

    bool
    onWrite(cache::CoreId, std::uint32_t, std::uint64_t) override
    {
        return !(write_reject_ > 0.0 &&
                 rng_.uniform() < write_reject_);
    }

  private:
    Rng rng_;
    double read_noise_;
    double write_reject_;
};

} // namespace

std::string
fuzzWorldTrial(std::uint64_t seed, std::uint64_t iterations,
               const fault::FaultPlan *plan,
               core::PolicyKind policy_kind)
{
    Rng rng(seed);

    sim::PlatformConfig cfg;
    cfg.num_cores = 4;
    cfg.llc.num_slices = 2;
    cfg.llc.sets_per_slice = 64;
    sim::Platform platform(cfg);
    DiffHarness diff(platform.llc(), 4096);

    core::TenantRegistry registry;
    {
        core::TenantSpec io;
        io.name = "io";
        io.cores = {0, 1};
        io.is_io = true;
        registry.add(io);

        core::TenantSpec cpu;
        cpu.name = "cpu";
        cpu.cores = {2};
        cpu.priority = rng.below(2)
                           ? core::TenantPriority::PerformanceCritical
                           : core::TenantPriority::BestEffort;
        registry.add(cpu);

        if (rng.below(2)) {
            core::TenantSpec extra;
            extra.name = "extra";
            extra.cores = {3};
            extra.priority = rng.below(2)
                                 ? core::TenantPriority::SoftwareStack
                                 : core::TenantPriority::BestEffort;
            extra.initial_ways = 1;
            registry.add(extra);
        }
    }

    core::IatParams params;
    params.interval_seconds = 5e-3;
    params.ddio_ways_min = 1 + static_cast<unsigned>(rng.below(2));
    params.ddio_ways_max = 4 + static_cast<unsigned>(rng.below(3));
    params.adaptive_io_step = rng.below(2) != 0;

    // Fault knobs: the plan's when given, seed-derived otherwise.
    double read_noise;
    double write_reject;
    double poll_drop;
    if (plan) {
        read_noise = plan->read_noise;
        write_reject = plan->write_reject;
        poll_drop = plan->poll_drop;
    } else {
        read_noise = rng.below(2) ? 0.2 * rng.uniform() : 0.0;
        write_reject = rng.below(2) ? 0.2 * rng.uniform() : 0.0;
        poll_drop = rng.below(4) == 0 ? 0.1 * rng.uniform() : 0.0;
    }
    std::uint64_t hook_seed_state = seed;
    FuzzMsrHook hook(splitmix64Next(hook_seed_state), read_noise,
                     write_reject);
    platform.msrBus().setFaultHook(&hook);

    auto policy = core::makePolicy(policy_kind, platform.pqos(),
                                   registry, params);
    // Drawn for every kind so the op stream stays prefix-stable
    // across --policy values; only the daemon kinds act on it.
    const bool hardening = rng.below(4) != 0;
    if (auto *daemon = policy->daemon())
        daemon->setHardeningEnabled(hardening);
    const bool strict = read_noise <= 0.0 && write_reject <= 0.0;

    const auto randAddr = [&] {
        return static_cast<cache::Addr>(rng.below(1ull << 16) * 64);
    };

    std::optional<core::TenantSpec> parked;
    // Set while the registry has churned and the policy has not yet
    // consumed the change: the allocator legitimately disagrees with
    // the registry in that window, so invariant checks pause.
    bool registry_pending = true;
    std::uint64_t policy_ticks = 0;

    for (std::uint64_t i = 0; i < iterations; ++i) {
        // Traffic: a few core and DMA bursts per interval.
        const unsigned bursts =
            1 + static_cast<unsigned>(rng.below(4));
        for (unsigned b = 0; b < bursts; ++b) {
            const auto core =
                static_cast<cache::CoreId>(rng.below(cfg.num_cores));
            const auto dev =
                static_cast<cache::DeviceId>(rng.below(2));
            switch (rng.below(5)) {
              case 0:
                platform.coreTouch(core, randAddr(),
                                   64 * (1 + rng.below(64)),
                                   rng.below(2)
                                       ? cache::AccessType::Write
                                       : cache::AccessType::Read);
                break;
              case 1:
                platform.coreAccess(core, randAddr(),
                                    rng.below(2)
                                        ? cache::AccessType::Write
                                        : cache::AccessType::Read);
                break;
              case 2:
                platform.dmaWrite(dev, randAddr(),
                                  64 * (1 + rng.below(24)));
                break;
              case 3:
                platform.dmaRead(dev, randAddr(),
                                 64 * (1 + rng.below(24)));
                break;
              default:
                platform.dmaWriteSplit(dev, randAddr(),
                                       64 * (2 + rng.below(23)), 64);
                break;
            }
        }
        platform.advanceQuantum(params.interval_seconds);

        // Tenant churn: park the newest tenant, or bring one back.
        if (rng.below(40) == 0) {
            if (parked) {
                registry.add(*parked);
                parked.reset();
            } else if (registry.size() > 2) {
                parked = registry.removeLast();
            }
            registry.markDirty();
            registry_pending = true;
        }

        const bool dropped =
            poll_drop > 0.0 && rng.uniform() < poll_drop;
        if (!dropped) {
            policy->tick(platform.now());
            ++policy_ticks;
            registry_pending = false;
        }

        if (!registry_pending && policy_ticks >= 1) {
            auto v = policyViolation(*policy, platform.pqos(),
                                     registry, params, strict);
            if (!v.empty())
                return prefixed("world", i + 1, std::move(v));
        }

        if (diff.report().mismatches != 0)
            return prefixed("world", i + 1,
                            diff.report().first_mismatch);
    }

    diff.deepCompare();
    if (diff.report().mismatches != 0)
        return prefixed("world", iterations,
                        diff.report().first_mismatch);
    return {};
}

namespace {

/**
 * Seed-derived cluster shape: small enough that a trial stays cheap,
 * varied enough to cover 2- and 3-shard routing, both batch-tenant
 * counts that do and do not fill the hot shard, and a live LoadAware
 * scheduler (Static never migrates, so LoadAware is strictly the
 * bigger surface).
 */
cluster::ClusterConfig
clusterConfigFromSeed(std::uint64_t seed)
{
    Rng rng(seed);

    cluster::ClusterConfig cfg;
    cfg.shards = 2 + static_cast<unsigned>(rng.below(2));
    cfg.epoch_seconds = 500e-6;
    cfg.fabric.latency_seconds =
        2e-6 * (1 + static_cast<double>(rng.below(4)));
    cfg.scheduler.policy = cluster::PlacePolicy::LoadAware;
    cfg.scheduler.margin = 0.02 + 0.02 * static_cast<double>(
                                             rng.below(4));
    cfg.scheduler.cooldown_epochs = 2 + rng.below(4);
    cfg.batch_tenants = 1 + static_cast<unsigned>(rng.below(3));

    cfg.shard.containers = 1;
    cfg.shard.batch_slots = 2;
    cfg.shard.batch_ws_bytes = 1u << 20;
    cfg.shard.rate_pps = 4e5 + 1e5 * static_cast<double>(rng.below(4));
    cfg.shard.flows = 4 + rng.below(12);
    cfg.shard.ring_entries = 128;
    cfg.shard.remote_rate_pps =
        2e5 + 1e5 * static_cast<double>(rng.below(4));
    cfg.shard.seed = seed;

    // Half the trials run the self-healing policy, with tight death
    // thresholds so a crashed host is detected within a short fuzz
    // run.
    if (rng.below(2) == 0) {
        cfg.scheduler.policy = cluster::PlacePolicy::Failover;
        cfg.scheduler.dead_after_epochs = 4 + rng.below(5);
        cfg.scheduler.degraded_after_epochs = 2 + rng.below(3);
        cfg.health.storm_budget = 1 + rng.below(4);
        cfg.migration_epochs = 1 + rng.below(4);
        cfg.migration_frames = 8 + static_cast<unsigned>(
                                       rng.below(24));
    }

    // And half (independently) run under an active fault plan: one
    // primary fault class, sometimes with a random-drop window
    // layered on top. Every window is seed-derived -- never a
    // function of the epoch count -- so truncating a failing trial
    // replays a strict prefix and shrinking stays monotone.
    if (rng.below(2) == 0) {
        fault::ClusterFaultPlan &plan = cfg.fault;
        switch (rng.below(4)) {
          case 0:
            plan.crash_host =
                static_cast<std::int64_t>(rng.below(cfg.shards));
            plan.crash_epoch = 2 + rng.below(12);
            plan.crash_recovery =
                rng.below(2) ? 0 : 6 + rng.below(10);
            break;
          case 1:
            plan.slow_host =
                static_cast<std::int64_t>(rng.below(cfg.shards));
            plan.slow_epoch = 2 + rng.below(10);
            plan.slow_duration = 6 + rng.below(14);
            plan.slow_factor = 2 + rng.below(3);
            break;
          case 2:
            plan.degrade_factor =
                2.0 + static_cast<double>(rng.below(7));
            plan.degrade_epoch = 1 + rng.below(8);
            plan.degrade_duration = 8 + rng.below(16);
            break;
          default:
            plan.partition_cut = 1 + rng.below(cfg.shards - 1);
            plan.partition_epoch = 3 + rng.below(10);
            plan.partition_duration = 6 + rng.below(14);
            break;
        }
        if (rng.below(2) == 0) {
            plan.drop_prob =
                0.05 + 0.05 * static_cast<double>(rng.below(4));
            plan.drop_epoch = rng.below(8);
            plan.drop_duration = 10 + rng.below(20);
        }
    }
    return cfg;
}

/** Conservation + placement invariants of one finished cluster. */
std::string
checkClusterInvariants(cluster::ClusterWorld &world)
{
    auto &fabric = world.fabric();
    std::uint64_t in_flight = 0;
    for (unsigned s = 0; s < world.shardCount(); ++s)
        in_flight += fabric.inFlight(s);
    if (fabric.framesDelivered() + in_flight !=
        fabric.framesRouted()) {
        return "fabric conservation: delivered " +
               std::to_string(fabric.framesDelivered()) +
               " + in-flight " + std::to_string(in_flight) +
               " != routed " +
               std::to_string(fabric.framesRouted());
    }

    auto &sched = world.scheduler();
    std::vector<unsigned> occupancy(world.shardCount(), 0);
    for (std::size_t t = 0; t < sched.tenantCount(); ++t) {
        const unsigned shard = sched.shardOf(t);
        if (shard >= world.shardCount()) {
            return "tenant " + std::to_string(t) +
                   " placed on nonexistent shard " +
                   std::to_string(shard);
        }
        ++occupancy[shard];
    }
    for (unsigned s = 0; s < world.shardCount(); ++s) {
        if (occupancy[s] > world.shard(s).batchSlots()) {
            return "shard " + std::to_string(s) + " hosts " +
                   std::to_string(occupancy[s]) + " tenants but has " +
                   std::to_string(world.shard(s).batchSlots()) +
                   " slots";
        }
        const unsigned free = sched.freeSlots(s);
        const unsigned slots = world.shard(s).batchSlots();
        if (occupancy[s] + free != slots) {
            return "shard " + std::to_string(s) + " occupancy " +
                   std::to_string(occupancy[s]) + " + free " +
                   std::to_string(free) + " != slots " +
                   std::to_string(slots);
        }
    }
    return {};
}

} // namespace

std::string
fuzzClusterTrial(std::uint64_t seed, std::uint64_t epochs)
{
    const auto cfg = clusterConfigFromSeed(seed);
    const double seconds =
        static_cast<double>(epochs) * cfg.epoch_seconds;

    // The single-threaded reference and the 2-thread run of the same
    // configuration. Everything nondeterministic a threading bug
    // could perturb -- counters, allocator masks, stream records,
    // migration history -- is folded into the digest.
    cluster::ClusterConfig ref_cfg = cfg;
    ref_cfg.threads = 1;
    cluster::ClusterWorld ref(ref_cfg);
    ref.run(seconds);

    cluster::ClusterConfig par_cfg = cfg;
    par_cfg.threads = 2;
    cluster::ClusterWorld par(par_cfg);
    par.run(seconds);

    const auto ref_digest = ref.digest();
    const auto par_digest = par.digest();
    if (ref_digest != par_digest) {
        // Point at the first diverging line so the shrunk repro says
        // which shard (or the fabric) went nondeterministic.
        std::size_t pos = 0;
        while (pos < ref_digest.size() && pos < par_digest.size() &&
               ref_digest[pos] == par_digest[pos]) {
            ++pos;
        }
        const std::size_t line_start =
            ref_digest.rfind('\n', pos) == std::string::npos
                ? 0
                : ref_digest.rfind('\n', pos) + 1;
        return prefixed(
            "cluster", epochs,
            "1-thread vs 2-thread digest mismatch at byte " +
                std::to_string(pos) + ": ref '" +
                ref_digest.substr(line_start,
                                  std::min<std::size_t>(
                                      96, ref_digest.size() -
                                              line_start)) +
                "...'");
    }

    for (auto *world : {&ref, &par}) {
        auto violation = checkClusterInvariants(*world);
        if (!violation.empty())
            return prefixed("cluster", epochs, std::move(violation));
    }
    return {};
}

namespace {

/**
 * Binary-search the minimal failing count in [1, failing_ops]; the
 * prefix-stable streams make failure monotone in the count (see the
 * header's file comment).
 */
ShrunkFailure
shrink(const char *kind, std::uint64_t seed,
       std::uint64_t failing_ops,
       const std::function<std::string(std::uint64_t)> &trial)
{
    std::uint64_t lo = 1;
    std::uint64_t hi = failing_ops;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (!trial(mid).empty())
            hi = mid;
        else
            lo = mid + 1;
    }
    ShrunkFailure out;
    out.seed = seed;
    out.ops = lo;
    out.violation = trial(lo);
    out.kind = kind;
    return out;
}

} // namespace

ShrunkFailure
shrinkLlcFailure(std::uint64_t seed, std::uint64_t failing_ops,
                 std::uint64_t sabotage_op)
{
    return shrink("fuzz_llc", seed, failing_ops,
                  [&](std::uint64_t n) {
                      return fuzzLlcTrial(seed, n, sabotage_op);
                  });
}

ShrunkFailure
shrinkWorldFailure(std::uint64_t seed, std::uint64_t failing_ops,
                   const fault::FaultPlan *plan,
                   core::PolicyKind policy)
{
    auto out = shrink("fuzz_world", seed, failing_ops,
                      [&](std::uint64_t n) {
                          return fuzzWorldTrial(seed, n, plan,
                                                policy);
                      });
    out.policy = policy;
    return out;
}

ShrunkFailure
shrinkClusterFailure(std::uint64_t seed, std::uint64_t failing_epochs)
{
    return shrink("fuzz_cluster", seed, failing_epochs,
                  [&](std::uint64_t n) {
                      return fuzzClusterTrial(seed, n);
                  });
}

exp::ExperimentSpec
reproSpec(const ShrunkFailure &failure,
          const std::vector<std::pair<std::string, std::string>>
              &fault_pairs)
{
    exp::ExperimentSpec spec;
    spec.name = failure.kind + "-repro";
    spec.sweep = failure.kind;
    spec.seed = failure.seed;
    spec.seed_mode = exp::ExperimentSpec::SeedMode::Shared;
    spec.constants.emplace_back("ops",
                                std::to_string(failure.ops));
    if (failure.kind == "fuzz_world" &&
        failure.policy != core::PolicyKind::Iat) {
        spec.constants.emplace_back("policy",
                                    core::toString(failure.policy));
    }
    spec.fault = fault_pairs;
    return spec;
}

std::string
writeReproFile(const std::string &dir,
               const exp::ExperimentSpec &spec)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = dir + "/fuzz_repro_" + spec.sweep + "_" +
                             std::to_string(spec.seed) + ".exp";
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write repro file " + path);
    out << spec.serialize();
    if (!out.flush())
        throw std::runtime_error("short write to " + path);
    return path;
}

} // namespace iat::check
