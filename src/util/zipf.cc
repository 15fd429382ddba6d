/**
 * @file
 * Zipf sampler implementation (Gray et al., SIGMOD'94; as in YCSB).
 */

#include "util/zipf.hh"

#include <cmath>

#include "util/logging.hh"

namespace iat {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    IAT_ASSERT(n > 0, "Zipf over an empty item set");
    IAT_ASSERT(theta >= 0.0 && theta < 1.0,
               "Gray sampler needs theta in [0,1)");
    zetan_ = zeta(n_, theta_);
    zeta2theta_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
}

double
ZipfGenerator::zeta(std::uint64_t n, double theta)
{
    // Direct summation; only run at construction. For the 1M-record
    // YCSB table this is ~1M pow() calls, 14-33 ms on a 4-vCPU x86
    // guest, paid by every generator built: one per KvStoreWorkload
    // and one per Zipfian net::TrafficGen (one per NIC), which every
    // world builds anew for each trial, solo pass and RFC2544 probe.
    // Single and Uniform TrafficGens build none.
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

std::uint64_t
ZipfGenerator::next(Rng &rng)
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double rank =
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t r = static_cast<std::uint64_t>(rank);
    return r >= n_ ? n_ - 1 : r;
}

std::uint64_t
ZipfGenerator::nextScrambled(Rng &rng)
{
    // FNV-1a over the rank, folded into the item range. This is the
    // same decorrelation trick YCSB applies.
    std::uint64_t rank = next(rng);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i) {
        hash ^= (rank >> (i * 8)) & 0xffu;
        hash *= 0x100000001b3ull;
    }
    return hash % n_;
}

} // namespace iat
