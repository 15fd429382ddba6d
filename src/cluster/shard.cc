/**
 * @file
 * ShardHost implementation.
 */

#include "cluster/shard.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "fault/injector.hh"
#include "util/logging.hh"

namespace iat::cluster {

namespace {

/** Fixed software cost of forwarding one fabric frame (descriptor
 *  handling + header rewrite), on top of the modelled memory walk. */
constexpr double kSinkOverheadCycles = 300.0;
constexpr std::uint64_t kSinkInstructions = 600;

/** Instructions one batch touch retires besides its memory walk. */
constexpr std::uint64_t kBatchInstructions = 200;

/** Batch touches per quantum, and the span each one walks. */
constexpr unsigned kBatchOps = 64;
constexpr std::uint64_t kBatchChunkBytes = 2048;

/**
 * Fabric-sink bookkeeping state (connection tracking, stats,
 * reassembly metadata), walked one line per serviced frame with
 * deliberately poor locality. This is what makes remote-frame
 * service time sensitive to the host's LLC/DRAM pressure -- the
 * paper's contention channel, applied to the cluster fabric.
 */
constexpr std::uint64_t kSinkStateBytes = 8u << 20;

/** Size of every frame a host sends on the fabric. */
constexpr std::uint32_t kRemoteFrameBytes = 256;

/** Poll interval of each host's IAT daemon. */
constexpr double kDaemonInterval = 1e-3;

/** Batch walk stride: page + line so consecutive touches never share
 *  a line or a DRAM row, defeating spatial reuse. */
constexpr std::uint64_t kBatchStride = 4096 + 64;

/** Sink bookkeeping walk: one line per frame, strided and salted by
 *  the flow id so the footprint spans the whole state region. */
constexpr std::uint64_t kStateStride = 4096 + 64;
constexpr std::uint64_t kStateFlowSalt = 257 * 64;

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** Full-precision double for the digest (bit-exactness checks). */
std::string
fmtExact(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The gauges each host samples into its stream every epoch. */
const char *const kSampleGauges[] = {
    "llc.miss_rate",
    "ddio.hit_rate",
    "dram.utilization",
    "llc.occupancy_bytes",
};

} // namespace

ShardHost::FabricSource::FabricSource(ShardHost &host,
                                      const net::TrafficConfig &cfg,
                                      std::uint64_t seed)
    : host_(host), gen_(cfg, seed), next_departure_(0.0)
{
    next_departure_ = gen_.nextGap();
}

void
ShardHost::FabricSource::runQuantum(double t_start, double dt)
{
    const double end = t_start + dt;
    const unsigned peers = host_.num_shards_ - 1;
    while (next_departure_ < end) {
        FabricFrame frame;
        frame.src_shard = host_.id_;
        // Deterministic round-robin over the other hosts.
        frame.dst_shard =
            (host_.id_ + 1 + dst_cursor_) % host_.num_shards_;
        dst_cursor_ = (dst_cursor_ + 1) % peers;
        frame.bytes = kRemoteFrameBytes;
        frame.flow = gen_.nextFlow();
        frame.depart = next_departure_;
        host_.outbox_.push_back(frame);
        next_departure_ += gen_.nextGap();
    }
}

void
ShardHost::FabricSink::runQuantum(double t_start, double dt)
{
    const double end = t_start + dt;
    net::Ring &ring = host_.fabric_nic_->rxRing();
    const double hz = host_.platform_.config().core_hz;
    const cache::CoreId core = host_.fabricCore();
    while (!ring.empty()) {
        const double ready = ring.headReady();
        const double start = std::max({ready, free_at_, t_start});
        if (start >= end)
            break;
        net::Packet pkt = ring.pop();
        // Frame payload (usually resident in the DDIO ways) plus one
        // dependent bookkeeping lookup (usually not): the lookup is a
        // latency-bound chase through a region far larger than the
        // fabric tenant's ways, so its cost tracks the host's DRAM
        // congestion -- the channel that lets placement move
        // remote-path latency.
        state_cursor_ += kStateStride;
        const auto &state = host_.sink_state_;
        const cache::Addr state_addr =
            state.base +
            (pkt.flow * kStateFlowSalt + state_cursor_) %
                (state.bytes - 64);
        const double cycles =
            host_.platform_.coreTouch(core, pkt.addr, pkt.bytes,
                                      cache::AccessType::Read) +
            host_.platform_.coreAccess(core, state_addr,
                                       cache::AccessType::Write) +
            kSinkOverheadCycles;
        host_.platform_.retire(core, kSinkInstructions);
        free_at_ = start + cycles / hz;
        host_.fabric_nic_->transmit(pkt, free_at_);
        host_.host_lat_.add(free_at_ - ready);
        ++packets;
    }
}

void
ShardHost::BatchRunnable::runQuantum(double t_start, double dt)
{
    (void)t_start;
    (void)dt;
    for (unsigned slot = 0; slot < host_.slots_.size(); ++slot) {
        BatchTenant *tenant = host_.slots_[slot];
        if (tenant == nullptr)
            continue;
        const auto &region = host_.batch_regions_[slot];
        const cache::CoreId core = host_.batchCore(slot);
        const std::uint64_t span = region.bytes - kBatchChunkBytes;
        for (unsigned op = 0; op < kBatchOps; ++op) {
            const cache::Addr addr =
                region.base + tenant->offset % span;
            // Mostly reads, with a write every fourth touch so the
            // tenant also generates writeback traffic.
            const auto type = (tenant->touches & 3) == 0
                                  ? cache::AccessType::Write
                                  : cache::AccessType::Read;
            host_.platform_.coreTouch(core, addr, kBatchChunkBytes,
                                      type);
            host_.platform_.retire(core, kBatchInstructions);
            tenant->offset += kBatchStride;
            ++tenant->touches;
        }
    }
}

ShardHost::ShardHost(unsigned id, unsigned num_shards,
                     const ShardConfig &cfg)
    : id_(id), num_shards_(num_shards), cfg_(cfg),
      platform_([&] {
          sim::PlatformConfig pc;
          pc.num_cores = 2 + cfg.containers + 1 + cfg.batch_slots;
          pc.dram.peak_bandwidth_bytes_per_s = cfg.dram_gbps * 1e9;
          return pc;
      }()),
      engine_(platform_), sink_(*this), batch_(*this)
{
    IAT_ASSERT(num_shards >= 1, "world needs at least one shard");
    IAT_ASSERT(id < num_shards, "shard id out of range");
    IAT_ASSERT(kBatchChunkBytes < cfg.batch_ws_bytes,
               "batch chunk must fit the working set");

    scenarios::AggTestPmdConfig world_cfg;
    world_cfg.num_containers = cfg.containers;
    world_cfg.frame_bytes = cfg.frame_bytes;
    world_cfg.rate_pps = cfg.rate_pps;
    world_cfg.flows = cfg.flows;
    // Size classifier tables for the actual population: a world per
    // host makes the single-host default (1M flows) needlessly heavy.
    world_cfg.max_flows = std::max<std::uint64_t>(cfg.flows, 1024);
    world_cfg.ring_entries = cfg.ring_entries;
    world_cfg.seed = cfg.seed + std::uint64_t{1000} * id;
    world_ = std::make_unique<scenarios::AggTestPmdWorld>(platform_,
                                                          world_cfg);

    // Fabric port: device 2 (the agg world owns devices 0 and 1).
    // Its own generator is idle -- the port is never a pipeline
    // source; frames enter only through injectRemote().
    net::TrafficConfig fabric_traffic;
    fabric_traffic.rate_pps = std::max(cfg.remote_rate_pps, 1.0);
    fabric_traffic.frame_bytes = kRemoteFrameBytes;
    fabric_nic_ = std::make_unique<net::NicQueue>(
        platform_, static_cast<cache::DeviceId>(2), "fabric",
        fabric_traffic, cfg.ring_entries, 2.0,
        world_cfg.seed + 500);

    // The sink core is an I/O tenant in its own right: remote frames
    // land in the DDIO ways and their service walks the LLC, so the
    // daemon sees and manages fabric traffic like any other I/O.
    core::TenantSpec fabric_spec;
    fabric_spec.name = "fabric";
    fabric_spec.cores = {fabricCore()};
    fabric_spec.is_io = true;
    fabric_spec.priority = core::TenantPriority::PerformanceCritical;
    fabric_spec.initial_ways = 1;
    fabric_spec.home_shard = static_cast<int>(id);
    world_->registry().add(fabric_spec);

    // Batch regions exist on every host from construction so a
    // migrated tenant touches the same modelled addresses wherever it
    // lands -- placement history cannot perturb the address stream.
    slots_.assign(cfg.batch_slots, nullptr);
    for (unsigned slot = 0; slot < cfg.batch_slots; ++slot) {
        batch_regions_.push_back(platform_.addressSpace().alloc(
            cfg.batch_ws_bytes, "batch" + std::to_string(slot)));
    }
    sink_state_ = platform_.addressSpace().alloc(kSinkStateBytes,
                                                 "fabric-state");

    core::IatParams params;
    params.interval_seconds = kDaemonInterval;
    policy_ = core::makePolicy(core::PolicyKind::Iat, platform_.pqos(),
                               world_->registry(), params,
                               world_->model());

    world_->attach(engine_);
    if (num_shards >= 2 && cfg.remote_rate_pps > 0.0) {
        net::TrafficConfig remote;
        remote.rate_pps = cfg.remote_rate_pps;
        remote.frame_bytes = kRemoteFrameBytes;
        remote.num_flows = cfg.flows;
        source_ = std::make_unique<FabricSource>(
            *this, remote, world_cfg.seed + 600);
        engine_.add(source_.get());
    }
    engine_.add(&sink_);
    engine_.add(&batch_);

    fault::attachPolicy(engine_, *policy_, kDaemonInterval);

    telemetry_ =
        std::make_unique<sim::PlatformTelemetry>(platform_, metrics_);
    engine_.addRunEndHook([this](double now) { onEpochEnd(now); });
}

ShardHost::~ShardHost() = default;

cache::CoreId
ShardHost::fabricCore() const
{
    return static_cast<cache::CoreId>(2 + cfg_.containers);
}

cache::CoreId
ShardHost::batchCore(unsigned slot) const
{
    IAT_ASSERT(slot < cfg_.batch_slots, "batch slot out of range");
    return static_cast<cache::CoreId>(2 + cfg_.containers + 1 + slot);
}

void
ShardHost::injectFabric(const std::vector<FabricFrame> &frames,
                        double now)
{
    for (const auto &frame : frames) {
        IAT_ASSERT(frame.dst_shard == id_,
                   "frame for shard %u delivered to shard %u",
                   frame.dst_shard, id_);
        fabric_nic_->injectRemote(now, frame.depart, frame.bytes,
                                  frame.flow);
    }
}

std::vector<FabricFrame>
ShardHost::takeOutbox()
{
    std::vector<FabricFrame> out = std::move(outbox_);
    outbox_.clear();
    return out;
}

void
ShardHost::attachBatch(unsigned slot, BatchTenant *tenant)
{
    IAT_ASSERT(slot < slots_.size(), "batch slot out of range");
    IAT_ASSERT(slots_[slot] == nullptr, "batch slot %u occupied",
               slot);
    IAT_ASSERT(tenant != nullptr, "null batch tenant");
    slots_[slot] = tenant;

    core::TenantSpec spec;
    spec.name = tenant->name;
    spec.cores = {batchCore(slot)};
    spec.is_io = false;
    spec.priority = core::TenantPriority::BestEffort;
    spec.initial_ways = 1;
    spec.home_shard = static_cast<int>(id_);
    spec.migratable = true;
    world_->registry().add(spec); // marks dirty -> daemon re-allocs
}

void
ShardHost::attachBatchCold(unsigned slot, BatchTenant *tenant)
{
    attachBatch(slot, tenant);
    // Cold caches on arrival: whatever an earlier occupant of this
    // slot left behind is gone, and the newcomer's own lines do not
    // exist here yet. Walk the slot's region line by line.
    const auto &region = batch_regions_[slot];
    const auto line_bytes = platform_.config().llc.line_bytes;
    const cache::Addr first = region.base / line_bytes;
    const cache::Addr last =
        (region.base + region.bytes - 1) / line_bytes;
    for (cache::Addr line = first; line <= last; ++line)
        platform_.llc().invalidate(line * line_bytes);
    platform_.l2(batchCore(slot)).invalidateAll();
}

BatchTenant *
ShardHost::detachBatch(unsigned slot)
{
    IAT_ASSERT(slot < slots_.size(), "batch slot out of range");
    BatchTenant *tenant = slots_[slot];
    IAT_ASSERT(tenant != nullptr, "batch slot %u empty", slot);
    slots_[slot] = nullptr;
    const bool removed = world_->registry().removeByName(tenant->name);
    IAT_ASSERT(removed, "tenant '%s' missing from registry",
               tenant->name.c_str());
    return tenant;
}

unsigned
ShardHost::freeBatchSlot() const
{
    for (unsigned slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot] == nullptr)
            return slot;
    }
    return static_cast<unsigned>(slots_.size());
}

double
ShardHost::gauge(const std::string &name) const
{
    const obs::Gauge *g = metrics_.findGauge(name);
    return g != nullptr ? g->read() : 0.0;
}

void
ShardHost::onEpochEnd(double now)
{
    telemetry_->update();
    if (records_.empty()) {
        obs::stream::StreamRecord header;
        header.kind = obs::stream::StreamKind::Header;
        header.t_seconds = now;
        header.json = "{\"kind\":\"header\",\"t_seconds\":" +
                      fmt(now) + ",\"host\":" + std::to_string(id_) +
                      ",\"columns\":[";
        bool first = true;
        for (const char *name : kSampleGauges) {
            if (!first)
                header.json += ',';
            first = false;
            header.json += "{\"name\":\"";
            header.json += name;
            header.json += "\",\"semantics\":\"level\"}";
        }
        header.json += "]}";
        records_.push_back(std::move(header));
    }
    obs::stream::StreamRecord rec;
    rec.kind = obs::stream::StreamKind::Sample;
    rec.t_seconds = now;
    rec.json =
        "{\"kind\":\"sample\",\"t_seconds\":" + fmt(now) +
        ",\"host\":" + std::to_string(id_) + ",\"values\":{";
    bool first = true;
    for (const char *name : kSampleGauges) {
        if (!first)
            rec.json += ',';
        first = false;
        rec.json += '"';
        rec.json += name;
        rec.json += "\":";
        rec.json += fmt(gauge(name));
    }
    rec.json += "}}";
    records_.push_back(std::move(rec));
}

std::string
ShardHost::digest() const
{
    std::ostringstream os;
    os << "shard=" << id_ << " t=" << fmtExact(platform_.now());
    os << " tx=" << world_->txPackets()
       << " rx=" << world_->rxPackets()
       << " drops=" << world_->totalDrops();

    const auto &frx = fabric_nic_->rxStats();
    const auto &ftx = fabric_nic_->txStats();
    os << " fab.rx=" << frx.rx_packets
       << " fab.drop=" << frx.totalDrops()
       << " fab.tx=" << ftx.tx_packets
       << " fab.sunk=" << sink_.packets;
    const auto &lat = fabric_nic_->latency();
    os << " fab.lat.n=" << lat.count()
       << " fab.lat.sum=" << fmtExact(lat.mean() *
                                      static_cast<double>(lat.count()))
       << " fab.lat.p99=" << fmtExact(lat.percentile(0.99));
    os << " host.lat.n=" << host_lat_.count()
       << " host.lat.sum=" << fmtExact(host_lat_.mean() *
                                       static_cast<double>(
                                           host_lat_.count()))
       << " host.lat.p99=" << fmtExact(host_lat_.percentile(0.99));

    const auto &daemon = *policy_->daemon();
    os << " daemon.ticks=" << daemon.ticks()
       << " daemon.stable=" << daemon.stableTicks()
       << " daemon.shuffles=" << daemon.shuffles()
       << " daemon.state=" << static_cast<int>(daemon.state())
       << " ddio.ways=" << daemon.ddioWays();

    const auto &alloc = daemon.allocator();
    os << " masks=";
    for (std::size_t t = 0; t < alloc.tenantCount(); ++t) {
        if (t)
            os << ',';
        os << alloc.tenantMask(t).bits();
    }

    os << " tenants=";
    const auto &registry = world_->registry();
    for (std::size_t t = 0; t < registry.size(); ++t) {
        if (t)
            os << ',';
        os << registry[t].name;
    }

    os << " batch=";
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (slot)
            os << ',';
        if (slots_[slot] != nullptr)
            os << slots_[slot]->name << ':'
               << slots_[slot]->touches;
        else
            os << '-';
    }

    std::uint64_t instructions = 0;
    for (unsigned c = 0; c < platform_.config().num_cores; ++c)
        instructions += platform_.instructionsRetired(
            static_cast<cache::CoreId>(c));
    os << " insn=" << instructions;

    os << " records=" << records_.size();
    if (!records_.empty())
        os << " last=" << records_.back().json;
    return os.str();
}

} // namespace iat::cluster
