/**
 * @file
 * Platform configuration: the modelled machine of Table I.
 */

#ifndef IATSIM_SIM_CONFIG_HH
#define IATSIM_SIM_CONFIG_HH

#include <cstdint>

#include "cache/geometry.hh"
#include "mem/dram.hh"
#include "util/units.hh"

namespace iat::sim {

/** Latency model of the memory hierarchy, in core cycles. */
struct LatencyConfig
{
    double l2_hit_cycles = 14.0;
    double llc_hit_cycles = 44.0;
    /**
     * Memory-level parallelism assumed for bulk (non-dependent)
     * accesses such as packet payload copies; dependent pointer
     * chases pay full latency.
     */
    double bulk_mlp = 4.0;
};

/** The modelled socket (defaults: Xeon Gold 6140, Table I). */
struct PlatformConfig
{
    cache::CacheGeometry llc;
    cache::PrivateCacheGeometry l2;
    mem::DramConfig dram;
    LatencyConfig latency;

    unsigned num_cores = 18;
    double core_hz = 2.3e9;

    /** Engine quantum in seconds of simulated time. */
    double quantum_seconds = 50e-6;
};

} // namespace iat::sim

#endif // IATSIM_SIM_CONFIG_HH
