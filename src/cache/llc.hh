/**
 * @file
 * The sliced, way-partitioned last-level cache model.
 *
 * This is the substrate both of the paper's problems live in:
 *
 *  - CAT semantics (paper Footnote 1): a core *allocates* only into
 *    the ways of its class of service, but *hits and updates* lines in
 *    any way. The Latent Contender problem follows directly: DDIO
 *    write-allocates evict core lines that happen to live in DDIO's
 *    ways even though no core shares those ways on paper.
 *
 *  - DDIO semantics (paper §II-B): an inbound DMA write performs an
 *    LLC lookup; present => write update (a "DDIO hit"), absent =>
 *    write allocate into the DDIO way mask (a "DDIO miss"), possibly
 *    evicting a dirty victim to DRAM. Device reads never allocate.
 *    The Leaky DMA problem follows: once in-flight Rx buffers exceed
 *    the DDIO ways' capacity, buffers bounce LLC->DRAM->LLC.
 *
 * Addresses are hashed to a slice and a set (modern Intel LLCs hash
 * physical addresses across slices; Maurice et al., RAID'15), so
 * traffic spreads evenly and reading one slice's counters and scaling
 * by the slice count -- exactly what the paper's monitor does -- is
 * sound in the model too.
 *
 * Storage interleaves each line's tag, LRU stamp and owner in one
 * record (a hit touches one host cache line for the probe and the
 * LRU update) while valid/dirty live in per-set bitmasks so victim
 * selection is bit arithmetic. The scalar access paths and the batched ones
 * (accessBatch / ddioWriteRange / deviceReadRange) share the same
 * per-(slice,set) primitives, and the batched paths are
 * state-equivalent to issuing the scalar calls in op order -- see
 * accessBatch() for the argument, and
 * tests/cache/llc_batch_property_test.cc for the enforcement.
 *
 * Every set is modelled exactly; DESIGN.md SS14 records why the
 * set-sampled mode was removed.
 */

#ifndef IATSIM_CACHE_LLC_HH
#define IATSIM_CACHE_LLC_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/shadow.hh"
#include "cache/types.hh"
#include "cache/way_mask.hh"

namespace iat::cache {

/** Monotonic per-slice uncore counters (the model's CHA events). */
struct SliceCounters
{
    std::uint64_t ddio_hits = 0;    ///< inbound writes that updated
    std::uint64_t ddio_misses = 0;  ///< inbound writes that allocated
    std::uint64_t lookups = 0;      ///< all lookups in this slice
};

/** Monotonic per-core demand counters (the model's core PMU events). */
struct CoreCacheCounters
{
    std::uint64_t llc_refs = 0;
    std::uint64_t llc_misses = 0;
};

/**
 * One core-side LLC operation inside an accessBatch() call, with its
 * per-op outcome filled in by the batch. `writeback` selects the
 * writebackFromCore() semantics (no demand counters); otherwise the
 * op is a coreAccess() demand reference.
 */
struct CoreOp
{
    Addr addr = 0;
    AccessType type = AccessType::Read;
    bool writeback = false;
    /** Out: line was present (== AccessResult::hit of the scalar op). */
    bool hit = false;
    /** Out: a dirty victim was evicted to DRAM by this op. */
    bool victim_writeback = false;
};

/** Aggregate outcome of a batched access run. */
struct BatchCounts
{
    std::uint64_t demand_hits = 0;   ///< demand ops that hit
    std::uint64_t demand_misses = 0; ///< demand ops that allocated
    std::uint64_t writebacks = 0;    ///< dirty victims (all op kinds)
};

/** Aggregate outcome of a batched DMA range. */
struct DmaCounts
{
    std::uint64_t hits = 0;       ///< lines present (update / read hit)
    std::uint64_t misses = 0;     ///< lines absent
    std::uint64_t writebacks = 0; ///< dirty victims evicted
};

/**
 * Sliced set-associative LLC with per-CLOS way partitioning and a
 * DDIO port.
 */
class SlicedLlc
{
  public:
    /**
     * Number of classes of service. Skylake-SP hardware exposes 16;
     * the model is slightly more generous so the Fig 15 overhead
     * sweep can register one CLOS per tenant at 16 tenants while
     * keeping CLOS 0 as the default class.
     */
    static constexpr unsigned numClos = 24;
    /** Number of monitoring ids; rmid 0 is "unassigned". */
    static constexpr unsigned numRmids = 64;
    /** Rmid accounting lines allocated by the DDIO port. */
    static constexpr RmidId ddioRmid = numRmids - 1;
    /** PCIe devices with per-device counters and optional masks. */
    static constexpr unsigned numDevices = 8;

    SlicedLlc(const CacheGeometry &geom, unsigned num_cores);

    const CacheGeometry &geometry() const { return geom_; }
    unsigned numCores() const { return num_cores_; }

    /// @name CAT-style configuration
    /// @{

    /** Program the capacity bitmask of a class of service. */
    void setClosMask(ClosId clos, WayMask mask);
    WayMask closMask(ClosId clos) const;

    /** Associate a core with a class of service (IA32_PQR_ASSOC). */
    void assocCoreClos(CoreId core, ClosId clos);
    ClosId coreClos(CoreId core) const;

    /** Associate a core with a monitoring id. */
    void assocCoreRmid(CoreId core, RmidId rmid);
    RmidId coreRmid(CoreId core) const;

    /** Program the DDIO way mask (the IIO LLC WAYS register). */
    void setDdioMask(WayMask mask);
    WayMask ddioMask() const { return ddio_mask_; }

    /// @name Device-aware DDIO (paper SS VII "future DDIO")
    /// @{

    /**
     * Give @p dev its own DDIO allocation mask, overriding the
     * chip-wide mask for that device's write allocates -- the
     * "assign different LLC ways to different PCIe devices, just
     * like what CAT does on CPU cores" extension the paper proposes.
     */
    void setDeviceDdioMask(DeviceId dev, WayMask mask);

    /** Revert @p dev to the chip-wide DDIO mask. */
    void clearDeviceDdioMask(DeviceId dev);

    /** Effective allocation mask for @p dev. */
    WayMask deviceDdioMask(DeviceId dev) const;

    /** Whether @p dev has a per-device mask programmed. */
    bool hasDeviceDdioMask(DeviceId dev) const;
    /// @}

    /** Enable/disable the DDIO path (BIOS knob, for ablations). */
    void
    setDdioEnabled(bool enabled)
    {
        ddio_enabled_ = enabled;
        if (shadow_ != nullptr)
            shadow_->onSetDdioEnabled(enabled);
    }
    bool ddioEnabled() const { return ddio_enabled_; }
    /// @}

    /// @name Access paths
    /// @{

    /**
     * Demand access from a core (L2 miss). Counts an LLC reference;
     * on miss, allocates into the core's CLOS mask and counts an LLC
     * miss.
     */
    AccessResult coreAccess(CoreId core, Addr addr, AccessType type);

    /**
     * Dirty writeback from a core's private cache. Updates the line
     * if present, else allocates it dirty in the core's CLOS mask.
     * Not a demand reference: does not bump ref/miss counters.
     */
    AccessResult writebackFromCore(CoreId core, Addr addr);

    /**
     * Inbound DMA write of one line (the DDIO path). Returns hit=true
     * for write update. With DDIO disabled the line is invalidated if
     * present and the write goes straight to DRAM (hit=false,
     * allocated=false); the caller charges the DRAM write.
     */
    AccessResult ddioWrite(Addr addr, DeviceId dev);

    /**
     * Outbound DMA read of one line. Hit => serviced from LLC;
     * miss => serviced from DRAM without allocation.
     */
    AccessResult deviceRead(Addr addr, DeviceId dev);
    /// @}

    /// @name Batched access paths
    /// @{

    /**
     * Apply @p n core-side ops as if coreAccess()/writebackFromCore()
     * had been called once per op, in array order; per-op outcomes
     * are written back into the ops and totals accumulated into
     * @p out (which is NOT reset: callers may accumulate).
     *
     * Internally the ops are hashed once, binned per slice (stable
     * counting sort), and each slice's sets are walked once per
     * batch. This is state-equivalent to scalar order because the
     * model's state factors by slice: an op only reads and writes its
     * own slice's sets and clock, so the per-slice subsequence --
     * which binning preserves -- determines the slice outcome, and
     * every cross-slice effect (RMID occupancy, writeback and PMU
     * counters) is a commutative sum.
     */
    void accessBatch(CoreId core, CoreOp *ops, std::size_t n,
                     BatchCounts &out);

    /**
     * Inbound DMA write of @p lines consecutive cache lines starting
     * at @p addr; equivalent to one ddioWrite() per line in address
     * order. With DDIO disabled, @p out.misses counts the lines that
     * went straight to DRAM (all of them). Totals accumulate into
     * @p out.
     */
    void ddioWriteRange(Addr addr, std::uint32_t lines, DeviceId dev,
                        DmaCounts &out);

    /**
     * Outbound DMA read of @p lines consecutive cache lines;
     * equivalent to one deviceRead() per line in address order.
     * Totals accumulate into @p out.
     */
    void deviceReadRange(Addr addr, std::uint32_t lines, DeviceId dev,
                         DmaCounts &out);
    /// @}

    /// @name Introspection / monitoring
    /// @{

    bool isPresent(Addr addr) const;
    void invalidate(Addr addr);
    void flushAll();

    const SliceCounters &sliceCounters(unsigned slice) const;
    const CoreCacheCounters &coreCounters(CoreId core) const;

    /** Per-device DDIO statistics (a §VII future-DDIO extension). */
    const SliceCounters &deviceCounters(DeviceId dev) const;

    /** CMT-style occupancy: lines currently owned by @p rmid. */
    std::uint64_t rmidLines(RmidId rmid) const;
    std::uint64_t rmidBytes(RmidId rmid) const;

    /** Total dirty-victim writebacks (for DRAM accounting tests). */
    std::uint64_t totalWritebacks() const { return total_writebacks_; }

    /**
     * Snapshot of one directory entry; `ts` is only meaningful when
     * `valid` (invalid ways keep their stale stamp, which victim
     * selection never reads because invalid ways short-circuit).
     */
    struct LineView
    {
        bool valid = false;
        bool dirty = false;
        LineAddr tag = 0;
        RmidId owner = 0;
        std::uint32_t ts = 0;
    };

    /** Directory peek for differential validation and deep dumps. */
    LineView lineAt(unsigned slice, unsigned set, unsigned way) const;

    /** Per-slice LRU clock (wraps at 2^32 by design). */
    std::uint32_t sliceClock(unsigned slice) const;
    /// @}

    /// @name Shadow validation
    /// @{

    /**
     * Attach (or detach with nullptr) a shadow observer. The shadow
     * sees every subsequent config write and line-granular access
     * with the real model's verdict; see cache/shadow.hh. Costs one
     * predictable null check per op when detached.
     */
    void setShadow(LlcShadow *shadow) { shadow_ = shadow; }
    LlcShadow *shadow() const { return shadow_; }
    /// @}

  private:
    /**
     * One cached line: tag, LRU stamp and owner interleaved so a hit
     * touches a single host cache line instead of striding three
     * parallel arrays (the tag probe and the LRU update are always
     * paired).
     */
    struct Line
    {
        LineAddr tag = 0;
        std::uint32_t ts = 0;
        RmidId owner = 0;
    };

    /** Per-set control word: way bitmasks plus the MRU way hint. */
    struct SetMeta
    {
        std::uint32_t valid = 0; ///< way bitmask
        std::uint32_t dirty = 0; ///< way bitmask
        std::uint8_t mru = 0;    ///< last-touched way
    };

    struct Slice
    {
        std::vector<Line> lines;   ///< way w of set s: s * ways + w
        std::vector<SetMeta> meta; ///< per set
        std::uint32_t clock = 0;
        SliceCounters counters;
    };

    /**
     * Hash a line address to (slice, set): the splitmix64 finalizer
     * decorrelates the line bits, then a Lemire range reduction on
     * the low 32 bits picks the slice and an independent reduction on
     * the high bits picks the set. Inline because every access path
     * starts here.
     */
    void
    locate(LineAddr line, unsigned &slice, unsigned &set) const
    {
        std::uint64_t h = line + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
        slice = static_cast<unsigned>(
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h)) *
             geom_.num_slices) >> 32);
        set = static_cast<unsigned>(
            ((h >> 32) * geom_.sets_per_slice) >> 32);
    }

    /** Way holding @p line in (slice, set), or -1 when absent. */
    int findWay(const Slice &sl, unsigned set, LineAddr line) const;

    /**
     * findWay() for the hot paths: checks the set's MRU way before
     * scanning and keeps it current. Packets are touched several
     * times back to back (DDIO write, core reads, device read), so
     * the first compare usually wins. Pure fast path -- a stale MRU
     * entry only costs the normal scan.
     */
    int findWayMru(Slice &sl, unsigned set, LineAddr line) const;

    /**
     * Choose the LRU victim among @p mask ways of the given set;
     * prefers invalid ways. Returns the way index.
     */
    unsigned chooseVictim(const Slice &sl, unsigned set,
                          WayMask mask) const;

    /** Allocate @p line in @p mask; updates occupancy; fills result. */
    void allocate(Slice &sl, unsigned set, LineAddr line, WayMask mask,
                  RmidId owner, bool dirty, AccessResult &result);

    /** coreAccess/writebackFromCore body after (slice,set) lookup. */
    void applyCoreOp(CoreId core, Slice &sl, unsigned set, CoreOp &op);

    /** ddioWrite body after (slice,set) lookup. */
    AccessResult applyDdioWrite(Slice &sl, unsigned set, LineAddr line,
                                DeviceId dev);

    /** Stable counting sort of scratch (slice,set) pairs by slice. */
    void binBySlice(std::size_t n);

    CacheGeometry geom_;
    unsigned num_cores_;
    bool ddio_enabled_ = true;
    LlcShadow *shadow_ = nullptr;

    std::vector<Slice> slices_;
    std::vector<WayMask> clos_masks_;
    std::vector<ClosId> core_clos_;
    std::vector<RmidId> core_rmid_;
    WayMask ddio_mask_;
    std::vector<WayMask> device_ddio_masks_; ///< empty = chip-wide

    std::vector<CoreCacheCounters> core_counters_;
    std::vector<SliceCounters> device_counters_;
    std::vector<std::uint64_t> rmid_lines_;
    std::uint64_t total_writebacks_ = 0;

    // Batch scratch, reused across calls to stay allocation-free on
    // the hot path once warmed up.
    std::vector<std::uint32_t> bin_slice_; ///< per-op slice id
    std::vector<std::uint32_t> bin_set_;   ///< per-op set index
    std::vector<std::uint32_t> bin_order_; ///< op indices, slice-grouped
    std::vector<std::uint32_t> bin_count_; ///< per-slice counts/offsets
};

} // namespace iat::cache

#endif // IATSIM_CACHE_LLC_HH
