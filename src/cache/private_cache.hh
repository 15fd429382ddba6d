/**
 * @file
 * Per-core private cache filter (the modelled L2).
 *
 * The LLC reference/miss counters the IAT monitor polls only see
 * demand traffic that misses the private levels, so workloads access
 * memory through a per-core L2 model: a plain set-associative LRU
 * cache (Tab I: 16-way 1 MB). L1 is folded into the base CPI of the
 * workload cost models; modelling it separately would only rescale
 * constants.
 *
 * The L2 is a write-back cache: dirty victims are handed to the LLC
 * as non-demand writebacks. The LLC is modelled mostly-inclusive for
 * simplicity (fills allocate in both levels); DESIGN.md SS4 discusses
 * why this preserves the paper's phenomena.
 */

#ifndef IATSIM_CACHE_PRIVATE_CACHE_HH
#define IATSIM_CACHE_PRIVATE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/types.hh"

namespace iat::cache {

/** Result of a private-cache access. */
struct PrivateAccessResult
{
    bool hit = false;
    /** Victim line that must be written back to the LLC (0 = none). */
    Addr writeback_addr = 0;
    bool has_writeback = false;
};

/** Set-associative LRU private cache. */
class PrivateCache
{
  public:
    explicit PrivateCache(const PrivateCacheGeometry &geom = {});

    const PrivateCacheGeometry &geometry() const { return geom_; }

    /**
     * Access one line. On miss the line is allocated (write-allocate
     * for stores) and the victim, if dirty, is reported for LLC
     * writeback.
     */
    PrivateAccessResult access(Addr addr, AccessType type);

    bool isPresent(Addr addr) const;
    void invalidateAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Snapshot of one directory entry (for differential checks). */
    struct LineView
    {
        bool valid = false;
        bool dirty = false;
        LineAddr tag = 0;
        std::uint32_t ts = 0;
    };

    /** Directory peek; `ts` only meaningful when `valid`. */
    LineView
    lineAt(unsigned set, unsigned way) const
    {
        const Way &entry =
            ways_[static_cast<std::size_t>(set) * geom_.num_ways + way];
        LineView view;
        view.valid = ((meta_[set].valid >> way) & 1u) != 0;
        view.dirty = ((meta_[set].dirty >> way) & 1u) != 0;
        view.tag = entry.tag;
        view.ts = entry.ts;
        return view;
    }

    /** LRU clock (wraps at 2^32 by design). */
    std::uint32_t clock() const { return clock_; }

  private:
    unsigned setIndex(LineAddr line) const;

    /** One cached line: tag and LRU stamp interleaved so the hit
     *  path -- the simulator's single hottest loop -- touches one
     *  host cache line for both the tag probe and the LRU update. */
    struct Way
    {
        LineAddr tag = 0;
        std::uint32_t ts = 0;
    };

    /**
     * Per-set control word: valid/dirty way bitmasks plus the
     * most-recently-used way. Packet handlers touch the same line
     * many times per packet, so checking the MRU way first
     * short-circuits the tag scan for the common case. Pure fast
     * path: a stale or wrong entry only costs the normal scan.
     */
    struct SetMeta
    {
        std::uint32_t valid = 0;
        std::uint32_t dirty = 0;
        std::uint8_t mru = 0;
    };

    PrivateCacheGeometry geom_;
    std::vector<Way> ways_; ///< way w of set s: s * num_ways + w
    /**
     * Mirror of ways_[].tag in a dense 8-byte-per-way array so the
     * full-set probe is a branch-free compare loop the compiler can
     * vectorize; ways_ stays the source of the LRU stamp. Tags are
     * unique per set, so the match mask holds at most one bit and
     * "lowest matching way" equals the historical first-match scan.
     */
    std::vector<LineAddr> tags_;
    std::vector<SetMeta> meta_; ///< per set
    std::uint32_t full_mask_ = 0;
    std::uint32_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace iat::cache

#endif // IATSIM_CACHE_PRIVATE_CACHE_HH
