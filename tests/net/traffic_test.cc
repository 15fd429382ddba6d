/**
 * @file
 * Unit tests for traffic generation: rates, bursts, flow draws.
 */

#include "net/traffic.hh"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>

namespace iat::net {
namespace {

double
measuredRate(TrafficGen &gen, int n)
{
    double t = 0.0;
    for (int i = 0; i < n; ++i)
        t += gen.nextGap();
    return n / t;
}

TEST(Traffic, LineRateHelpers)
{
    EXPECT_NEAR(lineRatePps40G(64) / 1e6, 59.5, 0.1);
    EXPECT_NEAR(lineRatePps40G(1500) / 1e6, 3.29, 0.01);
}

TEST(Traffic, DeterministicRateWithoutJitter)
{
    TrafficConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.burst_size = 1;
    cfg.jitter = false;
    TrafficGen gen(cfg, 1);
    EXPECT_NEAR(measuredRate(gen, 10000) / 1e6, 1.0, 0.01);
}

TEST(Traffic, JitteredRateConvergesToTarget)
{
    TrafficConfig cfg;
    cfg.rate_pps = 2e6;
    cfg.burst_size = 32;
    cfg.jitter = true;
    TrafficGen gen(cfg, 2);
    EXPECT_NEAR(measuredRate(gen, 200000) / 2e6, 1.0, 0.05);
}

TEST(Traffic, BurstsArePacedAtWireRate)
{
    TrafficConfig cfg;
    cfg.rate_pps = 1e5; // far below line rate
    cfg.frame_bytes = 64;
    cfg.burst_size = 8;
    cfg.jitter = false;
    TrafficGen gen(cfg, 3);
    const double wire_gap = 1.0 / lineRatePps40G(64);
    // First gap opens a burst (includes idle); the following 7 gaps
    // are wire-paced.
    gen.nextGap();
    for (int i = 0; i < 7; ++i)
        EXPECT_NEAR(gen.nextGap(), wire_gap, wire_gap * 0.01);
    // Next gap starts a new burst: much larger.
    EXPECT_GT(gen.nextGap(), wire_gap * 10);
}

TEST(Traffic, LineRateDegeneratesToBackToBack)
{
    TrafficConfig cfg;
    cfg.frame_bytes = 64;
    cfg.rate_pps = lineRatePps40G(64);
    cfg.burst_size = 4;
    cfg.jitter = true;
    TrafficGen gen(cfg, 4);
    const double wire_gap = 1.0 / lineRatePps40G(64);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(gen.nextGap(), wire_gap, wire_gap * 0.01);
}

TEST(Traffic, SingleFlowAlwaysZero)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Single;
    TrafficGen gen(cfg, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen.nextFlow(), 0u);
}

TEST(Traffic, UniformFlowsCoverPopulation)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Uniform;
    cfg.num_flows = 16;
    TrafficGen gen(cfg, 6);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto f = gen.nextFlow();
        EXPECT_LT(f, 16u);
        seen.insert(f);
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(Traffic, ZipfFlowsAreSkewed)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Zipfian;
    cfg.num_flows = 1000;
    TrafficGen gen(cfg, 7);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[gen.nextFlow()];
    int max_count = 0;
    for (const auto &[flow, count] : counts)
        max_count = std::max(max_count, count);
    EXPECT_GT(max_count, 20000 / 1000 * 10);
}

TEST(Traffic, SetRateTakesEffect)
{
    TrafficConfig cfg;
    cfg.rate_pps = 1e6;
    cfg.burst_size = 1;
    cfg.jitter = false;
    TrafficGen gen(cfg, 8);
    gen.setRate(5e5);
    EXPECT_NEAR(measuredRate(gen, 10000) / 5e5, 1.0, 0.01);
}

TEST(Traffic, SetFrameBytesRepaces)
{
    TrafficConfig cfg;
    cfg.frame_bytes = 64;
    cfg.rate_pps = lineRatePps40G(64);
    cfg.burst_size = 1;
    cfg.jitter = false;
    TrafficGen gen(cfg, 9);
    gen.setFrameBytes(1500);
    gen.setRate(lineRatePps40G(1500));
    EXPECT_NEAR(measuredRate(gen, 10000) / lineRatePps40G(1500), 1.0,
                0.01);
}

TEST(Traffic, SetNumFlowsGrowsPopulation)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Uniform;
    cfg.num_flows = 4;
    TrafficGen gen(cfg, 11);
    gen.setNumFlows(1000);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const auto f = gen.nextFlow();
        EXPECT_LT(f, 1000u);
        seen.insert(f);
    }
    EXPECT_GT(seen.size(), 500u);
}

TEST(Traffic, SetNumFlowsPromotesSingleToUniform)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Single;
    TrafficGen gen(cfg, 12);
    gen.setNumFlows(16);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(gen.nextFlow());
    EXPECT_EQ(seen.size(), 16u);
}

TEST(Traffic, SetNumFlowsRebuildsZipf)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Zipfian;
    cfg.num_flows = 100;
    TrafficGen gen(cfg, 13);
    gen.setNumFlows(10000);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(gen.nextFlow(), 10000u);
}

TEST(Traffic, UniformBuildsNoZipfNormaliser)
{
    // A Zipf normaliser refuses theta = 1.0, so a generator that
    // constructs and draws with it has built none.
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Uniform;
    cfg.num_flows = 1'000'000;
    cfg.zipf_theta = 1.0;
    TrafficGen gen(cfg, 15);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(gen.nextFlow(), 1'000'000u);

    // Nor does promoting a Single generator to Uniform.
    cfg.flow_dist = FlowDistribution::Single;
    cfg.num_flows = 1;
    TrafficGen promoted(cfg, 15);
    promoted.setNumFlows(1'000'000);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(promoted.nextFlow(), 1'000'000u);
}

/**
 * The first 64 (nextGap(), nextFlow()) draws of one generator at seed
 * 2024 with the default burst of 32 and jitter on: draws 0 and 32
 * open a burst with an exponential gap from the same rng_ stream the
 * flows draw from, the other 62 gaps are the 64 B wire gap. A shifted
 * or reordered stream changes these values.
 */
struct Stream
{
    double burst_gaps[2];
    std::uint64_t flows[64];
};

constexpr double kWireGap64B = 1.6800000000000002e-08;

constexpr Stream kSingle = {
    {9.0820711177167464e-05, 7.7492462580210616e-06},
    {0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0,
     0, 0, 0, 0, 0, 0, 0, 0}};

constexpr Stream kUniform1M = {
    {9.0820711177167464e-05, 6.4275474155634044e-05},
    {782103, 72054, 159715, 773650, 244872, 394335, 257007, 556785,
     50667, 720344, 931729, 881997, 366324, 773409, 189906, 42853,
     652727, 810053, 401922, 649205, 303988, 194663, 418662, 480020,
     2746, 502313, 240355, 510696, 585162, 963394, 502371, 131399,
     845197, 845301, 57038, 727732, 231136, 954062, 877470, 580632,
     127752, 270786, 331828, 405530, 749492, 345992, 887686, 411458,
     360728, 457507, 30575, 721528, 855442, 387096, 612206, 371933,
     731895, 17226, 145585, 61852, 512949, 941598, 906476, 636995}};

constexpr Stream kZipfian1000 = {
    {9.0820711177167464e-05, 6.4275474155634044e-05},
    {356, 405, 996, 160, 223, 652, 814, 983,
     405, 997, 868, 414, 178, 569, 996, 405,
     426, 570, 879, 835, 769, 223, 470, 535,
     405, 899, 223, 373, 255, 623, 899, 996,
     301, 314, 405, 770, 223, 259, 304, 28,
     405, 814, 360, 879, 11, 587, 680, 470,
     178, 834, 405, 588, 607, 652, 457, 61,
     310, 405, 996, 405, 373, 342, 5, 522}};

constexpr Stream kZipfian100To5000 = {
    {9.0820711177167464e-05, 6.4275474155634044e-05},
    {549, 4405, 3223, 1569, 1769, 1126, 2360, 4354,
     4405, 102, 2366, 1870, 4243, 4395, 3223, 4405,
     3441, 3960, 4081, 3603, 3061, 3223, 3490, 2255,
     4405, 4457, 1769, 749, 1932, 4726, 4457, 4996,
     4494, 1377, 4405, 1498, 1769, 1385, 4847, 2256,
     4996, 2360, 1879, 1288, 3073, 425, 4605, 2899,
     1016, 1983, 4405, 2855, 2174, 2308, 4031, 4834,
     1887, 4405, 4996, 4405, 4567, 2013, 579, 4245}};

void
expectStream(TrafficGen &gen, const Stream &golden)
{
    for (std::size_t i = 0; i < 64; ++i) {
        const double gap = gen.nextGap();
        const std::uint64_t flow = gen.nextFlow();
        // Within 4 ulps: the burst gaps go through std::log.
        EXPECT_DOUBLE_EQ(gap, i % 32 == 0 ? golden.burst_gaps[i / 32]
                                          : kWireGap64B)
            << "draw " << i;
        EXPECT_EQ(flow, golden.flows[i]) << "draw " << i;
    }
}

TEST(TrafficStream, SingleIsPinned)
{
    TrafficConfig cfg;
    TrafficGen gen(cfg, 2024);
    expectStream(gen, kSingle);
}

TEST(TrafficStream, Uniform1MIsPinned)
{
    // The bakeoff agg and l3fwd flow table.
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Uniform;
    cfg.num_flows = 1'000'000;
    TrafficGen gen(cfg, 2024);
    expectStream(gen, kUniform1M);
}

TEST(TrafficStream, ZipfianIsPinned)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Zipfian;
    cfg.num_flows = 1000;
    cfg.zipf_theta = 0.99;
    TrafficGen gen(cfg, 2024);
    expectStream(gen, kZipfian1000);
}

TEST(TrafficStream, ZipfianAfterSetNumFlowsIsPinned)
{
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Zipfian;
    cfg.num_flows = 100;
    TrafficGen gen(cfg, 2024);
    gen.setNumFlows(5000);
    expectStream(gen, kZipfian100To5000);
}

TEST(TrafficDeath, ZipfianRejectsThetaOne)
{
    // A Zipfian generator checks theta wherever it builds the
    // normaliser: at construction, and again on every setNumFlows. A
    // construct-then-regrow sequence (Fig 9's ramp) therefore dies
    // before it can draw with theta = 1.0.
    TrafficConfig cfg;
    cfg.flow_dist = FlowDistribution::Zipfian;
    cfg.num_flows = 100;
    cfg.zipf_theta = 1.0;
    EXPECT_DEATH(TrafficGen(cfg, 16), "theta");
    EXPECT_DEATH(
        {
            TrafficGen gen(cfg, 16);
            gen.setNumFlows(5000);
        },
        "theta");
}

TEST(TrafficDeath, RejectsZeroFlows)
{
    TrafficConfig cfg;
    TrafficGen gen(cfg, 14);
    EXPECT_DEATH(gen.setNumFlows(0), "at least one flow");
}

TEST(TrafficDeath, RejectsZeroRate)
{
    TrafficConfig cfg;
    cfg.rate_pps = 0.0;
    EXPECT_DEATH(TrafficGen(cfg, 1), "positive");
}

} // namespace
} // namespace iat::net
