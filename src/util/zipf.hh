/**
 * @file
 * Zipfian key-popularity generator, as used by YCSB.
 *
 * The YCSB paper draws record keys from a Zipf(theta) distribution
 * (theta = 0.99 in the IAT evaluation). We implement the Gray et al.
 * "quick and portable" rejection-free sampler that YCSB itself uses,
 * plus the scrambled variant that decorrelates popularity from key
 * order so hot keys spread across the table.
 */

#ifndef IATSIM_UTIL_ZIPF_HH
#define IATSIM_UTIL_ZIPF_HH

#include <cstdint>

#include "util/rng.hh"

namespace iat {

/** Zipf(theta) sampler over [0, n) with O(1) draws. */
class ZipfGenerator
{
  public:
    /**
     * @param n      Number of distinct items.
     * @param theta  Skew; 0 is uniform, 0.99 is the YCSB default.
     */
    ZipfGenerator(std::uint64_t n, double theta);

    /** Draw the next rank (0 = most popular). */
    std::uint64_t next(Rng &rng);

    /**
     * Draw a scrambled item id: rank popularity is preserved, but
     * the mapping rank->item is a fixed pseudo-random permutation via
     * an FNV-style hash, matching YCSB's ScrambledZipfianGenerator.
     */
    std::uint64_t nextScrambled(Rng &rng);

    double theta() const { return theta_; }

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2theta_;
};

} // namespace iat

#endif // IATSIM_UTIL_ZIPF_HH
