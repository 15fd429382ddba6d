/**
 * @file
 * SlicedLlc implementation.
 */

#include "cache/llc.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace iat::cache {

SlicedLlc::SlicedLlc(const CacheGeometry &geom, unsigned num_cores)
    : geom_(geom), num_cores_(num_cores)
{
    IAT_ASSERT(geom_.valid(), "bad cache geometry");
    IAT_ASSERT(num_cores_ >= 1, "need at least one core");
    IAT_ASSERT(geom_.num_ways <= 32,
               "way bitmasks are 32 bits wide");

    slices_.resize(geom_.num_slices);
    const std::size_t lines =
        static_cast<std::size_t>(geom_.sets_per_slice) * geom_.num_ways;
    for (auto &sl : slices_) {
        sl.lines.assign(lines, {});
        sl.meta.assign(geom_.sets_per_slice, {});
    }

    // Power-on defaults mirror real RDT: every CLOS may fill the whole
    // cache, every core sits in CLOS 0 / RMID 0, and DDIO owns the two
    // top ways (paper SS II-B: "by default, DDIO can only perform write
    // allocate on two LLC ways", drawn as ways N-1 and N in Fig 1).
    clos_masks_.assign(numClos, WayMask::full(geom_.num_ways));
    core_clos_.assign(num_cores_, 0);
    core_rmid_.assign(num_cores_, 0);
    ddio_mask_ = WayMask::fromRange(geom_.num_ways - 2, 2);

    core_counters_.assign(num_cores_, {});
    device_counters_.assign(numDevices, {});
    device_ddio_masks_.assign(numDevices, WayMask{});
    rmid_lines_.assign(numRmids, 0);
    bin_count_.assign(geom_.num_slices + 1, 0);
}

void
SlicedLlc::setClosMask(ClosId clos, WayMask mask)
{
    IAT_ASSERT(clos < numClos, "CLOS out of range");
    IAT_ASSERT(mask.isValidCbm(), "CAT requires a non-empty consecutive "
               "capacity bitmask, got %s",
               mask.toString(geom_.num_ways).c_str());
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "mask exceeds way count");
    clos_masks_[clos] = mask;
    if (shadow_ != nullptr)
        shadow_->onSetClosMask(clos, mask);
}

WayMask
SlicedLlc::closMask(ClosId clos) const
{
    IAT_ASSERT(clos < numClos, "CLOS out of range");
    return clos_masks_[clos];
}

void
SlicedLlc::assocCoreClos(CoreId core, ClosId clos)
{
    IAT_ASSERT(core < num_cores_ && clos < numClos,
               "core/CLOS out of range");
    core_clos_[core] = clos;
    if (shadow_ != nullptr)
        shadow_->onAssocCoreClos(core, clos);
}

ClosId
SlicedLlc::coreClos(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_clos_[core];
}

void
SlicedLlc::assocCoreRmid(CoreId core, RmidId rmid)
{
    IAT_ASSERT(core < num_cores_ && rmid < numRmids,
               "core/RMID out of range");
    core_rmid_[core] = rmid;
    if (shadow_ != nullptr)
        shadow_->onAssocCoreRmid(core, rmid);
}

RmidId
SlicedLlc::coreRmid(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_rmid_[core];
}

void
SlicedLlc::setDdioMask(WayMask mask)
{
    IAT_ASSERT(mask.isValidCbm(), "DDIO mask must be non-empty and "
               "consecutive, got %s",
               mask.toString(geom_.num_ways).c_str());
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "DDIO mask exceeds way count");
    ddio_mask_ = mask;
    if (shadow_ != nullptr)
        shadow_->onSetDdioMask(mask);
}

void
SlicedLlc::setDeviceDdioMask(DeviceId dev, WayMask mask)
{
    IAT_ASSERT(dev < device_ddio_masks_.size(),
               "device out of range");
    IAT_ASSERT(mask.isValidCbm(), "device DDIO mask must be "
               "non-empty and consecutive");
    IAT_ASSERT(mask.highest() < geom_.num_ways,
               "device DDIO mask exceeds way count");
    device_ddio_masks_[dev] = mask;
    if (shadow_ != nullptr)
        shadow_->onSetDeviceDdioMask(dev, mask);
}

void
SlicedLlc::clearDeviceDdioMask(DeviceId dev)
{
    IAT_ASSERT(dev < device_ddio_masks_.size(),
               "device out of range");
    device_ddio_masks_[dev] = WayMask{};
    if (shadow_ != nullptr)
        shadow_->onClearDeviceDdioMask(dev);
}

WayMask
SlicedLlc::deviceDdioMask(DeviceId dev) const
{
    if (dev < device_ddio_masks_.size() &&
        !device_ddio_masks_[dev].empty()) {
        return device_ddio_masks_[dev];
    }
    return ddio_mask_;
}

bool
SlicedLlc::hasDeviceDdioMask(DeviceId dev) const
{
    return dev < device_ddio_masks_.size() &&
           !device_ddio_masks_[dev].empty();
}

int
SlicedLlc::findWay(const Slice &sl, unsigned set, LineAddr line) const
{
    const Line *ways =
        &sl.lines[static_cast<std::size_t>(set) * geom_.num_ways];
    for (std::uint32_t m = sl.meta[set].valid; m != 0; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (ways[w].tag == line)
            return static_cast<int>(w);
    }
    return -1;
}

int
SlicedLlc::findWayMru(Slice &sl, unsigned set, LineAddr line) const
{
    SetMeta &meta = sl.meta[set];
    const unsigned mw = meta.mru;
    const Line *ways =
        &sl.lines[static_cast<std::size_t>(set) * geom_.num_ways];
    if (((meta.valid >> mw) & 1u) != 0 && ways[mw].tag == line)
        return static_cast<int>(mw);
    for (std::uint32_t m = meta.valid; m != 0; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (ways[w].tag == line) {
            meta.mru = static_cast<std::uint8_t>(w);
            return static_cast<int>(w);
        }
    }
    return -1;
}

unsigned
SlicedLlc::chooseVictim(const Slice &sl, unsigned set,
                        WayMask mask) const
{
    // An invalid way in the mask short-circuits: the ascending scan of
    // the dense layout returned the first invalid way, which is the
    // lowest invalid bit here.
    const std::uint32_t invalid = mask.bits() & ~sl.meta[set].valid;
    if (invalid != 0)
        return static_cast<unsigned>(std::countr_zero(invalid));

    const Line *ways =
        &sl.lines[static_cast<std::size_t>(set) * geom_.num_ways];
    unsigned victim = mask.lowest();
    std::uint32_t best_ts = UINT32_MAX;
    // ts <= best_ts (not <): of equal-stamped ways the highest wins,
    // matching the historical tie-break the tests pin down.
    for (std::uint32_t m = mask.bits(); m != 0; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (ways[w].ts <= best_ts) {
            best_ts = ways[w].ts;
            victim = w;
        }
    }
    return victim;
}

void
SlicedLlc::allocate(Slice &sl, unsigned set, LineAddr line,
                    WayMask mask, RmidId owner, bool dirty,
                    AccessResult &result)
{
    IAT_ASSERT(!mask.empty(), "allocation with empty way mask");
    const unsigned way = chooseVictim(sl, set, mask);
    Line &entry = sl.lines[static_cast<std::size_t>(set) *
                               geom_.num_ways +
                           way];
    SetMeta &meta = sl.meta[set];
    const std::uint32_t bit = 1u << way;
    if (meta.valid & bit) {
        if (meta.dirty & bit) {
            result.writeback = true;
            ++total_writebacks_;
        }
        --rmid_lines_[entry.owner];
    }
    entry.tag = line;
    meta.valid |= bit;
    if (dirty)
        meta.dirty |= bit;
    else
        meta.dirty &= ~bit;
    entry.owner = owner;
    entry.ts = ++sl.clock;
    meta.mru = static_cast<std::uint8_t>(way);
    ++rmid_lines_[owner];
    result.allocated = true;
}

void
SlicedLlc::applyCoreOp(CoreId core, Slice &sl, unsigned set, CoreOp &op)
{
    const LineAddr line = op.addr / geom_.line_bytes;
    ++sl.counters.lookups;
    if (!op.writeback)
        ++core_counters_[core].llc_refs;

    const int w = findWayMru(sl, set, line);
    if (w >= 0) {
        // Footnote 1: hits are serviced from any way, even ways the
        // core's CLOS cannot allocate into.
        op.hit = true;
        op.victim_writeback = false;
        if (op.writeback || op.type == AccessType::Write)
            sl.meta[set].dirty |= 1u << w;
        sl.lines[static_cast<std::size_t>(set) * geom_.num_ways +
                 static_cast<unsigned>(w)]
            .ts = ++sl.clock;
    } else {
        if (!op.writeback)
            ++core_counters_[core].llc_misses;
        AccessResult result;
        allocate(sl, set, line, clos_masks_[core_clos_[core]],
                 core_rmid_[core],
                 op.writeback || op.type == AccessType::Write, result);
        op.hit = false;
        op.victim_writeback = result.writeback;
    }
    if (shadow_ != nullptr)
        shadow_->onCoreOp(core, op.addr, op.type, op.writeback, op.hit,
                          op.victim_writeback);
}

AccessResult
SlicedLlc::coreAccess(CoreId core, Addr addr, AccessType type)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    unsigned slice, set;
    locate(addr / geom_.line_bytes, slice, set);
    CoreOp op;
    op.addr = addr;
    op.type = type;
    applyCoreOp(core, slices_[slice], set, op);
    AccessResult result;
    result.hit = op.hit;
    result.writeback = op.victim_writeback;
    result.allocated = !op.hit;
    return result;
}

AccessResult
SlicedLlc::writebackFromCore(CoreId core, Addr addr)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    unsigned slice, set;
    locate(addr / geom_.line_bytes, slice, set);
    CoreOp op;
    op.addr = addr;
    op.writeback = true;
    applyCoreOp(core, slices_[slice], set, op);
    AccessResult result;
    result.hit = op.hit;
    result.writeback = op.victim_writeback;
    result.allocated = !op.hit;
    return result;
}

void
SlicedLlc::binBySlice(std::size_t n)
{
    // Stable counting sort of op indices by slice: bin_count_ first
    // holds per-slice counts, then exclusive prefix offsets that the
    // scatter pass advances.
    std::fill(bin_count_.begin(), bin_count_.end(), 0);
    for (std::size_t i = 0; i < n; ++i)
        ++bin_count_[bin_slice_[i]];
    std::uint32_t off = 0;
    for (auto &c : bin_count_) {
        const std::uint32_t count = c;
        c = off;
        off += count;
    }
    bin_order_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        bin_order_[bin_count_[bin_slice_[i]]++] =
            static_cast<std::uint32_t>(i);
}

void
SlicedLlc::accessBatch(CoreId core, CoreOp *ops, std::size_t n,
                       BatchCounts &out)
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    if (n == 0)
        return;
    if (n == 1) {
        unsigned slice, set;
        locate(ops[0].addr / geom_.line_bytes, slice, set);
        applyCoreOp(core, slices_[slice], set, ops[0]);
    } else {
        bin_slice_.resize(n);
        bin_set_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            locate(ops[i].addr / geom_.line_bytes, bin_slice_[i],
                   bin_set_[i]);
        binBySlice(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t i = bin_order_[k];
            applyCoreOp(core, slices_[bin_slice_[i]], bin_set_[i],
                        ops[i]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!ops[i].writeback) {
            out.demand_hits += ops[i].hit;
            out.demand_misses += !ops[i].hit;
        }
        out.writebacks += ops[i].victim_writeback;
    }
}

AccessResult
SlicedLlc::applyDdioWrite(Slice &sl, unsigned set, LineAddr line,
                          DeviceId dev)
{
    ++sl.counters.lookups;
    AccessResult result;
    SliceCounters *dev_ctr =
        dev < device_counters_.size() ? &device_counters_[dev] : nullptr;

    if (!ddio_enabled_) {
        // DDIO off: the write still snoops the coherence domain (paper
        // SS II-B) but the data lands in DRAM; drop any stale copy.
        const int w = findWay(sl, set, line);
        if (w >= 0) {
            --rmid_lines_[sl.lines[static_cast<std::size_t>(set) *
                                       geom_.num_ways +
                                   static_cast<unsigned>(w)]
                              .owner];
            sl.meta[set].valid &= ~(1u << w);
        }
    } else if (const int w = findWayMru(sl, set, line); w >= 0) {
        // Write update: the paper's "DDIO hit".
        result.hit = true;
        sl.meta[set].dirty |= 1u << w;
        sl.lines[static_cast<std::size_t>(set) * geom_.num_ways +
                 static_cast<unsigned>(w)]
            .ts = ++sl.clock;
        ++sl.counters.ddio_hits;
        if (dev_ctr)
            ++dev_ctr->ddio_hits;
    } else {
        // Write allocate into the (device's) DDIO ways: a "DDIO miss".
        ++sl.counters.ddio_misses;
        if (dev_ctr)
            ++dev_ctr->ddio_misses;
        allocate(sl, set, line, deviceDdioMask(dev), ddioRmid,
                 /*dirty=*/true, result);
    }
    if (shadow_ != nullptr)
        shadow_->onDdioWrite(line * geom_.line_bytes, dev, result);
    return result;
}

AccessResult
SlicedLlc::ddioWrite(Addr addr, DeviceId dev)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    return applyDdioWrite(slices_[slice], set, line, dev);
}

void
SlicedLlc::ddioWriteRange(Addr addr, std::uint32_t lines, DeviceId dev,
                          DmaCounts &out)
{
    const LineAddr first = addr / geom_.line_bytes;
    if (lines == 1) {
        unsigned slice, set;
        locate(first, slice, set);
        const auto r =
            applyDdioWrite(slices_[slice], set, first, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
        out.writebacks += r.writeback;
        return;
    }
    bin_slice_.resize(lines);
    bin_set_.resize(lines);
    for (std::uint32_t i = 0; i < lines; ++i)
        locate(first + i, bin_slice_[i], bin_set_[i]);
    binBySlice(lines);
    for (std::uint32_t k = 0; k < lines; ++k) {
        const std::uint32_t i = bin_order_[k];
        const auto r = applyDdioWrite(slices_[bin_slice_[i]],
                                      bin_set_[i], first + i, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
        out.writebacks += r.writeback;
    }
}

AccessResult
SlicedLlc::deviceRead(Addr addr, DeviceId dev)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);

    Slice &sl = slices_[slice];
    ++sl.counters.lookups;
    AccessResult result;
    const int w = findWayMru(sl, set, line);
    if (w >= 0) {
        result.hit = true;
        sl.lines[static_cast<std::size_t>(set) * geom_.num_ways +
                 static_cast<unsigned>(w)]
            .ts = ++sl.clock;
    }
    // Device reads that miss are serviced from DRAM and, per SS II-B,
    // are not allocated in the LLC.
    if (shadow_ != nullptr)
        shadow_->onDeviceRead(addr, dev, result);
    return result;
}

void
SlicedLlc::deviceReadRange(Addr addr, std::uint32_t lines,
                           DeviceId dev, DmaCounts &out)
{
    const LineAddr first = addr / geom_.line_bytes;
    for (std::uint32_t i = 0; i < lines; ++i) {
        const auto r = deviceRead((first + i) * geom_.line_bytes, dev);
        out.hits += r.hit;
        out.misses += !r.hit;
    }
}

bool
SlicedLlc::isPresent(Addr addr) const
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    return findWay(slices_[slice], set, line) >= 0;
}

void
SlicedLlc::invalidate(Addr addr)
{
    const LineAddr line = addr / geom_.line_bytes;
    unsigned slice, set;
    locate(line, slice, set);
    Slice &sl = slices_[slice];
    const int w = findWay(sl, set, line);
    if (w >= 0) {
        --rmid_lines_[sl.lines[static_cast<std::size_t>(set) *
                                   geom_.num_ways +
                               static_cast<unsigned>(w)]
                          .owner];
        sl.meta[set].valid &= ~(1u << w);
    }
    if (shadow_ != nullptr)
        shadow_->onInvalidate(addr);
}

void
SlicedLlc::flushAll()
{
    for (auto &sl : slices_) {
        for (auto &m : sl.meta) {
            m.valid = 0;
            m.dirty = 0;
        }
        sl.clock = 0;
    }
    rmid_lines_.assign(numRmids, 0);
    if (shadow_ != nullptr)
        shadow_->onFlushAll();
}

const SliceCounters &
SlicedLlc::sliceCounters(unsigned slice) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    return slices_[slice].counters;
}

const CoreCacheCounters &
SlicedLlc::coreCounters(CoreId core) const
{
    IAT_ASSERT(core < num_cores_, "core out of range");
    return core_counters_[core];
}

const SliceCounters &
SlicedLlc::deviceCounters(DeviceId dev) const
{
    IAT_ASSERT(dev < device_counters_.size(), "device out of range");
    return device_counters_[dev];
}

std::uint64_t
SlicedLlc::rmidLines(RmidId rmid) const
{
    IAT_ASSERT(rmid < numRmids, "RMID out of range");
    return rmid_lines_[rmid];
}

std::uint64_t
SlicedLlc::rmidBytes(RmidId rmid) const
{
    return rmidLines(rmid) * geom_.line_bytes;
}

SlicedLlc::LineView
SlicedLlc::lineAt(unsigned slice, unsigned set, unsigned way) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    IAT_ASSERT(set < geom_.sets_per_slice, "set out of range");
    IAT_ASSERT(way < geom_.num_ways, "way out of range");
    const Slice &sl = slices_[slice];
    const Line &entry =
        sl.lines[static_cast<std::size_t>(set) * geom_.num_ways + way];
    LineView view;
    view.valid = ((sl.meta[set].valid >> way) & 1u) != 0;
    view.dirty = ((sl.meta[set].dirty >> way) & 1u) != 0;
    view.tag = entry.tag;
    view.owner = entry.owner;
    view.ts = entry.ts;
    return view;
}

std::uint32_t
SlicedLlc::sliceClock(unsigned slice) const
{
    IAT_ASSERT(slice < slices_.size(), "slice out of range");
    return slices_[slice].clock;
}

} // namespace iat::cache
