/**
 * @file
 * Platform implementation.
 */

#include "sim/platform.hh"

#include <algorithm>

#include "util/logging.hh"

namespace iat::sim {

using cache::AccessType;

Platform::Platform(const PlatformConfig &cfg)
    : cfg_(cfg), llc_(cfg.llc, cfg.num_cores), dram_(cfg.dram)
{
    l2_.reserve(cfg_.num_cores);
    for (unsigned c = 0; c < cfg_.num_cores; ++c)
        l2_.emplace_back(cfg_.l2);
    instructions_.assign(cfg_.num_cores, 0);
    cycles_.assign(cfg_.num_cores, 0);
    mbm_bytes_.assign(cache::SlicedLlc::numRmids, 0);

    msr_bus_ = std::make_unique<rdt::MsrBus>(llc_, *this);
    pqos_ = std::make_unique<rdt::PqosSystem>(
        *msr_bus_, cfg_.llc.num_slices, cfg_.llc.line_bytes,
        cfg_.llc.num_ways);
}

void
Platform::chargeDramRead(cache::RmidId rmid, std::uint64_t bytes,
                         mem::DramSource source)
{
    dram_.read(bytes, source);
    mbm_bytes_[rmid] += bytes;
}

void
Platform::chargeDramWrite(cache::RmidId rmid, std::uint64_t bytes,
                          mem::DramSource source)
{
    dram_.write(bytes, source);
    mbm_bytes_[rmid] += bytes;
}

double
Platform::coreAccess(cache::CoreId core, cache::Addr addr,
                     AccessType type)
{
    IAT_ASSERT(core < cfg_.num_cores, "core out of range");
    const auto line_bytes = cfg_.llc.line_bytes;
    const auto r2 = l2_[core].access(addr, type);
    if (r2.has_writeback) {
        const auto wb = llc_.writebackFromCore(core, r2.writeback_addr);
        if (wb.writeback) {
            chargeDramWrite(llc_.coreRmid(core), line_bytes,
                            mem::DramSource::Writeback);
        }
    }
    if (r2.hit)
        return cfg_.latency.l2_hit_cycles;

    const auto r3 = llc_.coreAccess(core, addr, type);
    if (r3.writeback) {
        chargeDramWrite(llc_.coreRmid(core), line_bytes,
                        mem::DramSource::Writeback);
    }
    if (r3.hit)
        return cfg_.latency.llc_hit_cycles;

    const double dram_latency = dram_.currentLatencyCycles();
    chargeDramRead(llc_.coreRmid(core), line_bytes,
                   mem::DramSource::CoreDemand);
    return cfg_.latency.llc_hit_cycles + dram_latency;
}

double
Platform::coreTouch(cache::CoreId core, cache::Addr addr,
                    std::uint64_t bytes, AccessType type)
{
    const TouchSpan span{addr, bytes, type};
    double cycles = 0.0;
    coreTouchBulk(core, &span, 1, &cycles);
    return cycles;
}

void
Platform::coreTouchBulk(cache::CoreId core, const TouchSpan *spans,
                        std::size_t n, double *out_cycles)
{
    IAT_ASSERT(core < cfg_.num_cores, "core out of range");
    const auto line_bytes = cfg_.llc.line_bytes;

    // Pass 1: run every line through the L2 filter in span/line
    // order, queueing each miss's LLC work (victim writeback first,
    // then the demand fill -- the order the scalar path issues them).
    touch_ops_.clear();
    touch_slots_.clear();
    auto &l2 = l2_[core];
    for (std::size_t s = 0; s < n; ++s) {
        if (spans[s].bytes == 0)
            continue;
        const cache::Addr first = spans[s].addr / line_bytes;
        const cache::Addr last =
            (spans[s].addr + spans[s].bytes - 1) / line_bytes;
        for (cache::Addr line = first; line <= last; ++line) {
            const auto r2 = l2.access(line * line_bytes, spans[s].type);
            if (r2.hit) {
                touch_slots_.push_back(-1);
                continue;
            }
            if (r2.has_writeback) {
                cache::CoreOp wb;
                wb.addr = r2.writeback_addr;
                wb.writeback = true;
                touch_ops_.push_back(wb);
            }
            cache::CoreOp op;
            op.addr = line * line_bytes;
            op.type = spans[s].type;
            touch_ops_.push_back(op);
            touch_slots_.push_back(
                static_cast<std::int32_t>(touch_ops_.size()) - 1);
        }
    }

    // Pass 2: one slice-binned LLC walk for all queued misses.
    double dram_latency = 0.0;
    if (!touch_ops_.empty()) {
        cache::BatchCounts counts;
        llc_.accessBatch(core, touch_ops_.data(), touch_ops_.size(),
                         counts);
        if (counts.writebacks > 0) {
            chargeDramWrite(llc_.coreRmid(core),
                            counts.writebacks * line_bytes,
                            mem::DramSource::Writeback);
        }
        if (counts.demand_misses > 0) {
            chargeDramRead(llc_.coreRmid(core),
                           counts.demand_misses * line_bytes,
                           mem::DramSource::CoreDemand);
            // Constant within a quantum (utilization only moves at
            // advanceQuantum), so hoisting it out of the per-line sum
            // below reproduces the scalar path's arithmetic exactly.
            dram_latency = dram_.currentLatencyCycles();
        }
    }

    // Pass 3: rebuild each span's latency sum in line order, with the
    // same operands in the same order as per-line coreAccess() calls,
    // so the result is bit-identical to the scalar path.
    const double mlp = std::max(1.0, cfg_.latency.bulk_mlp);
    std::size_t slot = 0;
    for (std::size_t s = 0; s < n; ++s) {
        double total = 0.0;
        if (spans[s].bytes > 0) {
            const cache::Addr first = spans[s].addr / line_bytes;
            const cache::Addr last =
                (spans[s].addr + spans[s].bytes - 1) / line_bytes;
            for (cache::Addr line = first; line <= last; ++line) {
                const std::int32_t op = touch_slots_[slot++];
                if (op < 0)
                    total += cfg_.latency.l2_hit_cycles;
                else if (touch_ops_[static_cast<std::size_t>(op)].hit)
                    total += cfg_.latency.llc_hit_cycles;
                else
                    total += cfg_.latency.llc_hit_cycles + dram_latency;
            }
        }
        // Independent line accesses overlap in the memory system.
        out_cycles[s] = total / mlp;
    }
}

void
Platform::dmaWrite(cache::DeviceId dev, cache::Addr addr,
                   std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const auto line_bytes = cfg_.llc.line_bytes;
    const cache::Addr first = addr / line_bytes;
    const cache::Addr last = (addr + bytes - 1) / line_bytes;
    const auto nlines = static_cast<std::uint32_t>(last - first + 1);
    cache::DmaCounts counts;
    llc_.ddioWriteRange(addr, nlines, dev, counts);
    if (counts.writebacks > 0) {
        chargeDramWrite(cache::SlicedLlc::ddioRmid,
                        counts.writebacks * line_bytes,
                        mem::DramSource::Writeback);
    }
    if (!llc_.ddioEnabled()) {
        // DDIO off: the inbound lines land in DRAM directly.
        chargeDramWrite(cache::SlicedLlc::ddioRmid,
                        static_cast<std::uint64_t>(nlines) * line_bytes,
                        mem::DramSource::DeviceDma);
    }
}

void
Platform::dmaWriteSplit(cache::DeviceId dev, cache::Addr addr,
                        std::uint64_t bytes,
                        std::uint64_t header_bytes)
{
    if (bytes == 0)
        return;
    const std::uint64_t header =
        std::min(bytes, header_bytes);
    dmaWrite(dev, addr, header);
    if (header >= bytes)
        return;
    // Payload: straight to DRAM; invalidate any stale LLC copy so
    // a later core read observes the fresh data from memory.
    const auto line_bytes = cfg_.llc.line_bytes;
    const cache::Addr first = (addr + header) / line_bytes;
    const cache::Addr last = (addr + bytes - 1) / line_bytes;
    for (cache::Addr line = first; line <= last; ++line)
        llc_.invalidate(line * line_bytes);
    chargeDramWrite(cache::SlicedLlc::ddioRmid,
                    (last - first + 1) * line_bytes,
                    mem::DramSource::DeviceDma);
}

void
Platform::dmaRead(cache::DeviceId dev, cache::Addr addr,
                  std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const auto line_bytes = cfg_.llc.line_bytes;
    const cache::Addr first = addr / line_bytes;
    const cache::Addr last = (addr + bytes - 1) / line_bytes;
    cache::DmaCounts counts;
    llc_.deviceReadRange(
        addr, static_cast<std::uint32_t>(last - first + 1), dev,
        counts);
    if (counts.misses > 0) {
        chargeDramRead(cache::SlicedLlc::ddioRmid,
                       counts.misses * line_bytes,
                       mem::DramSource::DeviceDma);
    }
}

void
Platform::advanceQuantum(double dt_seconds)
{
    IAT_ASSERT(dt_seconds > 0.0, "non-positive quantum");
    now_ += dt_seconds;
    const auto dcycles =
        static_cast<std::uint64_t>(dt_seconds * cfg_.core_hz);
    for (auto &c : cycles_)
        c += dcycles;
    dram_.advanceTime(dt_seconds);
}

std::uint64_t
Platform::instructionsRetired(cache::CoreId core) const
{
    IAT_ASSERT(core < cfg_.num_cores, "core out of range");
    return instructions_[core];
}

std::uint64_t
Platform::cyclesElapsed(cache::CoreId core) const
{
    IAT_ASSERT(core < cfg_.num_cores, "core out of range");
    return cycles_[core];
}

std::uint64_t
Platform::mbmBytes(cache::RmidId rmid) const
{
    IAT_ASSERT(rmid < cache::SlicedLlc::numRmids, "RMID out of range");
    return mbm_bytes_[rmid];
}

} // namespace iat::sim
