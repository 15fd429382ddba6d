/**
 * @file
 * Unit tests for the synthetic SPEC profiles.
 */

#include "wl/spec.hh"

#include <gtest/gtest.h>

#include <ostream>

#include "sim/engine.hh"
#include "util/units.hh"

namespace iat::wl {

/**
 * Print a profile by name. Without a printer gtest dumps the raw
 * bytes, which include the std::string's heap pointer, into the
 * parameterized test names -- so every build would register the
 * SpecProfileProperty cases under different names.
 */
void
PrintTo(const SpecProfile &profile, std::ostream *os)
{
    *os << profile.name;
}

namespace {

sim::PlatformConfig
testConfig()
{
    sim::PlatformConfig cfg;
    cfg.num_cores = 2;
    cfg.quantum_seconds = 100e-6;
    return cfg;
}

TEST(SpecProfiles, TableHasTheTenBenchmarks)
{
    const auto &profiles = spec2006Profiles();
    EXPECT_EQ(profiles.size(), 10u);
    for (const char *name :
         {"mcf", "omnetpp", "xalancbmk", "soplex", "sphinx3", "gcc",
          "astar", "milc", "libquantum", "lbm"}) {
        EXPECT_NO_FATAL_FAILURE(specProfile(name)) << name;
    }
}

TEST(SpecProfiles, LookupReturnsMatchingProfile)
{
    EXPECT_EQ(specProfile("mcf").name, "mcf");
    EXPECT_EQ(specProfile("mcf").wss_bytes, 36 * MiB);
}

TEST(SpecProfilesDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(specProfile("nonexistent"),
                testing::ExitedWithCode(1), "unknown SPEC profile");
}

TEST(SpecWorkload, ProgressesAndRetiresInstructions)
{
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    SpecWorkload wl(platform, 0, specProfile("gcc"), 1);
    engine.add(&wl);
    engine.run(0.01);
    EXPECT_GT(wl.instructionsDone(), 1'000'000u);
    EXPECT_EQ(platform.instructionsRetired(0), wl.instructionsDone());
}

TEST(SpecWorkload, PointerChasersAreSlowerThanStreamers)
{
    // mcf (dependent, large) must retire fewer instructions per
    // second than libquantum (streaming, MLP-amortized).
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    SpecWorkload mcf(platform, 0, specProfile("mcf"), 1);
    SpecWorkload libq(platform, 1, specProfile("libquantum"), 2);
    engine.add(&mcf);
    engine.add(&libq);
    engine.run(0.02);
    EXPECT_LT(mcf.instructionsDone(),
              libq.instructionsDone() * 0.8);
}

TEST(SpecWorkload, CacheSensitivityOfGcc)
{
    // gcc's 8 MiB footprint fits a large LLC share: restricting its
    // CLOS to one way must hurt its progress.
    sim::PlatformConfig cfg = testConfig();

    sim::Platform wide(cfg);
    wide.llc().setClosMask(1, cache::WayMask::fromRange(0, 9));
    wide.llc().assocCoreClos(0, 1);
    sim::Engine engine_wide(wide);
    SpecWorkload wl_wide(wide, 0, specProfile("gcc"), 3);
    engine_wide.add(&wl_wide);
    engine_wide.run(0.03);

    sim::Platform narrow(cfg);
    narrow.llc().setClosMask(1, cache::WayMask::fromRange(0, 1));
    narrow.llc().assocCoreClos(0, 1);
    sim::Engine engine_narrow(narrow);
    SpecWorkload wl_narrow(narrow, 0, specProfile("gcc"), 3);
    engine_narrow.add(&wl_narrow);
    engine_narrow.run(0.03);

    EXPECT_GT(wl_wide.instructionsDone(),
              wl_narrow.instructionsDone() * 1.1);
}

TEST(SpecWorkload, StreamingInsensitiveToWays)
{
    // lbm streams with no reuse: way restriction barely matters.
    sim::PlatformConfig cfg = testConfig();

    sim::Platform wide(cfg);
    wide.llc().setClosMask(1, cache::WayMask::fromRange(0, 9));
    wide.llc().assocCoreClos(0, 1);
    sim::Engine engine_wide(wide);
    SpecWorkload wl_wide(wide, 0, specProfile("lbm"), 4);
    engine_wide.add(&wl_wide);
    engine_wide.run(0.02);

    sim::Platform narrow(cfg);
    narrow.llc().setClosMask(1, cache::WayMask::fromRange(0, 1));
    narrow.llc().assocCoreClos(0, 1);
    sim::Engine engine_narrow(narrow);
    SpecWorkload wl_narrow(narrow, 0, specProfile("lbm"), 4);
    engine_narrow.add(&wl_narrow);
    engine_narrow.run(0.02);

    const double ratio =
        static_cast<double>(wl_wide.instructionsDone()) /
        static_cast<double>(wl_narrow.instructionsDone());
    EXPECT_LT(ratio, 1.15);
}

/** Every profile makes forward progress and stays within its region. */
class SpecProfileProperty
    : public testing::TestWithParam<SpecProfile>
{
};

TEST_P(SpecProfileProperty, RunsCleanly)
{
    sim::Platform platform(testConfig());
    sim::Engine engine(platform);
    SpecWorkload wl(platform, 0, GetParam(), 9);
    engine.add(&wl);
    engine.run(0.005);
    EXPECT_GT(wl.instructionsDone(), 100'000u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpecProfileProperty,
    testing::ValuesIn(spec2006Profiles()),
    [](const testing::TestParamInfo<SpecProfile> &info) {
        return info.param.name;
    });

} // namespace
} // namespace iat::wl
