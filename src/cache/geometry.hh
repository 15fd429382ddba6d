/**
 * @file
 * Geometry of the modelled last-level cache.
 *
 * Defaults reproduce Table I of the paper: the Xeon Gold 6140 LLC is
 * an 11-way, 24.75 MB, non-inclusive shared cache split into 18
 * slices, i.e. 2048 sets of 11 ways of 64 B lines per slice.
 */

#ifndef IATSIM_CACHE_GEOMETRY_HH
#define IATSIM_CACHE_GEOMETRY_HH

#include <cstdint>

#include "util/units.hh"

namespace iat::cache {

/** Structural parameters of a sliced set-associative cache. */
struct CacheGeometry
{
    std::uint32_t line_bytes = 64;
    std::uint32_t num_slices = 18;
    std::uint32_t sets_per_slice = 2048;
    std::uint32_t num_ways = 11;

    /** Total capacity in bytes (24.75 MiB with the defaults). */
    constexpr std::uint64_t
    totalBytes() const
    {
        return static_cast<std::uint64_t>(line_bytes) * num_slices *
               sets_per_slice * num_ways;
    }

    /** Capacity of one way across all slices (2.25 MiB default). */
    constexpr std::uint64_t
    wayBytes() const
    {
        return static_cast<std::uint64_t>(line_bytes) * num_slices *
               sets_per_slice;
    }

    /** Lines held by one way across all slices. */
    constexpr std::uint64_t
    linesPerWay() const
    {
        return static_cast<std::uint64_t>(num_slices) * sets_per_slice;
    }

    constexpr std::uint64_t
    totalLines() const
    {
        return linesPerWay() * num_ways;
    }

    constexpr bool
    valid() const
    {
        return line_bytes >= 8 && num_slices >= 1 &&
               sets_per_slice >= 1 && num_ways >= 1 && num_ways <= 32;
    }
};

/** Geometry of a private per-core cache (Tab I L2: 16-way 1 MB). */
struct PrivateCacheGeometry
{
    std::uint32_t line_bytes = 64;
    std::uint32_t num_sets = 1024;
    std::uint32_t num_ways = 16;

    constexpr std::uint64_t
    totalBytes() const
    {
        return static_cast<std::uint64_t>(line_bytes) * num_sets *
               num_ways;
    }
};

} // namespace iat::cache

#endif // IATSIM_CACHE_GEOMETRY_HH
