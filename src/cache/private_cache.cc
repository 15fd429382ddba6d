/**
 * @file
 * PrivateCache implementation.
 */

#include "cache/private_cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace iat::cache {

namespace {

inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

PrivateCache::PrivateCache(const PrivateCacheGeometry &geom)
    : geom_(geom)
{
    IAT_ASSERT(geom_.num_sets >= 1 && geom_.num_ways >= 1,
               "bad private cache geometry");
    IAT_ASSERT(geom_.num_ways <= 32, "way bitmasks are 32 bits wide");
    const std::size_t lines =
        static_cast<std::size_t>(geom_.num_sets) * geom_.num_ways;
    ways_.assign(lines, {});
    tags_.assign(lines, 0);
    meta_.assign(geom_.num_sets, {});
    full_mask_ = geom_.num_ways >= 32 ? ~0u
                                      : (1u << geom_.num_ways) - 1u;
}

unsigned
PrivateCache::setIndex(LineAddr line) const
{
    return static_cast<unsigned>(
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(mix64(line))) *
         geom_.num_sets) >> 32);
}

PrivateAccessResult
PrivateCache::access(Addr addr, AccessType type)
{
    const LineAddr line = addr / geom_.line_bytes;
    const unsigned set = setIndex(line);
    const std::size_t base =
        static_cast<std::size_t>(set) * geom_.num_ways;
    Way *ways = &ways_[base];
    const LineAddr *tags = &tags_[base];
    SetMeta &meta = meta_[set];
    const std::uint32_t vmask = meta.valid;

    PrivateAccessResult result;
    const unsigned mw = meta.mru;
    if (((vmask >> mw) & 1u) != 0 && tags[mw] == line) {
        result.hit = true;
        ++hits_;
        ways[mw].ts = ++clock_;
        if (type == AccessType::Write)
            meta.dirty |= 1u << mw;
        return result;
    }
    std::uint32_t match = 0;
    for (unsigned w = 0; w < geom_.num_ways; ++w)
        match |= static_cast<std::uint32_t>(tags[w] == line) << w;
    match &= vmask;
    if (match != 0) {
        const unsigned w =
            static_cast<unsigned>(std::countr_zero(match));
        result.hit = true;
        ++hits_;
        ways[w].ts = ++clock_;
        meta.mru = static_cast<std::uint8_t>(w);
        if (type == AccessType::Write)
            meta.dirty |= 1u << w;
        return result;
    }

    ++misses_;
    // Victim choice preserves the dense layout's combined scan: the
    // *last* invalid way seen wins; with the set full, the first way
    // holding the minimum timestamp (strict <) wins.
    unsigned victim;
    const std::uint32_t invalid = full_mask_ & ~vmask;
    if (invalid != 0) {
        victim = static_cast<unsigned>(std::bit_width(invalid)) - 1u;
    } else {
        victim = 0;
        std::uint32_t best_ts = UINT32_MAX;
        for (unsigned w = 0; w < geom_.num_ways; ++w) {
            if (ways[w].ts < best_ts) {
                best_ts = ways[w].ts;
                victim = w;
            }
        }
    }

    const std::uint32_t bit = 1u << victim;
    if ((vmask & bit) && (meta.dirty & bit)) {
        result.has_writeback = true;
        result.writeback_addr = ways[victim].tag * geom_.line_bytes;
    }
    ways[victim].tag = line;
    tags_[base + victim] = line;
    meta.valid |= bit;
    if (type == AccessType::Write)
        meta.dirty |= bit;
    else
        meta.dirty &= ~bit;
    ways[victim].ts = ++clock_;
    meta.mru = static_cast<std::uint8_t>(victim);
    return result;
}

bool
PrivateCache::isPresent(Addr addr) const
{
    const LineAddr line = addr / geom_.line_bytes;
    const unsigned set = setIndex(line);
    const LineAddr *tags =
        &tags_[static_cast<std::size_t>(set) * geom_.num_ways];
    std::uint32_t match = 0;
    for (unsigned w = 0; w < geom_.num_ways; ++w)
        match |= static_cast<std::uint32_t>(tags[w] == line) << w;
    return (match & meta_[set].valid) != 0;
}

void
PrivateCache::invalidateAll()
{
    for (auto &m : meta_) {
        m.valid = 0;
        m.dirty = 0;
    }
    clock_ = 0;
}

} // namespace iat::cache
