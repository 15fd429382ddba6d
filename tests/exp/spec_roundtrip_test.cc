/**
 * @file
 * Round-trip tests for the experiment spec format: every spec in the
 * shipped corpus (and a randomized family) must satisfy
 * parse(serialize(parse(text))) == parse(text), and the malformed
 * corpus must be rejected with a SpecError.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/spec.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;
using iat::exp::ExperimentSpec;
using SeedMode = iat::exp::ExperimentSpec::SeedMode;
using iat::exp::SpecError;

namespace {

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<fs::path>
corpusFiles(const char *subdir)
{
    const fs::path dir =
        fs::path(IATSIM_SOURCE_DIR) / "tests/exp/corpus" / subdir;
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".exp") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

TEST(SpecRoundTrip, CorpusParsesAndRoundTrips)
{
    const auto files = corpusFiles(".");
    ASSERT_GE(files.size(), 5u);
    for (const auto &file : files) {
        SCOPED_TRACE(file.filename().string());
        const ExperimentSpec first =
            ExperimentSpec::parse(slurp(file), file.string());
        const std::string text = first.serialize();
        const ExperimentSpec second =
            ExperimentSpec::parse(text, "serialized");
        EXPECT_EQ(first, second) << text;
        // Serialization is a fixed point after one round: the second
        // pass must emit byte-identical text.
        EXPECT_EQ(text, second.serialize());
        // The spec identity survives the trip too.
        EXPECT_EQ(first.trialCount(), second.trialCount());
        EXPECT_EQ(first.hash(1.0), second.hash(1.0));
    }
}

TEST(SpecRoundTrip, CorpusCoversTheFormatFeatures)
{
    // Sanity-check that the corpus actually exercises the features the
    // round-trip claims to cover, so a gutted corpus can't pass.
    bool saw_axis = false, saw_fault = false, saw_shared = false;
    bool saw_hex_seed = false, saw_expect = false;
    for (const auto &file : corpusFiles(".")) {
        const ExperimentSpec spec =
            ExperimentSpec::parse(slurp(file), file.string());
        saw_axis |= !spec.axes.empty();
        saw_fault |= !spec.fault.empty();
        saw_shared |= spec.seed_mode == SeedMode::Shared;
        saw_hex_seed |= spec.seed == 0xdeadbeefull;
        saw_expect |= !spec.expect.empty();
    }
    EXPECT_TRUE(saw_axis);
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_shared);
    EXPECT_TRUE(saw_hex_seed);
    EXPECT_TRUE(saw_expect);
}

TEST(SpecRoundTrip, BadCorpusIsRejected)
{
    const auto files = corpusFiles("bad");
    ASSERT_GE(files.size(), 9u);
    for (const auto &file : files) {
        SCOPED_TRACE(file.filename().string());
        EXPECT_THROW(ExperimentSpec::parse(slurp(file), file.string()),
                     SpecError);
    }
}

namespace {

/** A random identifier-ish token (safe in keys and values). */
std::string
randomToken(iat::Rng &rng)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789_-.";
    const std::size_t len = 1 + rng.below(8);
    std::string out;
    for (std::size_t i = 0; i < len; ++i)
        out += alphabet[rng.below(sizeof(alphabet) - 1)];
    return out;
}

ExperimentSpec
randomSpec(iat::Rng &rng)
{
    ExperimentSpec spec;
    spec.sweep = randomToken(rng);
    spec.name = rng.below(2) ? randomToken(rng) : spec.sweep;
    spec.seed = rng.next();
    spec.seed_mode =
        rng.below(2) ? SeedMode::Shared : SeedMode::Derived;
    const std::size_t n_params = rng.below(4);
    for (std::size_t i = 0; i < n_params; ++i) {
        spec.constants.emplace_back("p" + std::to_string(i),
                                    randomToken(rng));
    }
    const std::size_t n_axes = rng.below(3);
    for (std::size_t a = 0; a < n_axes; ++a) {
        iat::exp::AxisSpec axis;
        axis.name = "ax" + std::to_string(a);
        const std::size_t n_values = 1 + rng.below(4);
        for (std::size_t v = 0; v < n_values; ++v)
            axis.values.push_back(randomToken(rng));
        spec.axes.push_back(std::move(axis));
    }
    if (rng.below(2)) {
        spec.fault.emplace_back("read_noise", "0.1");
        spec.fault.emplace_back("seed", std::to_string(rng.below(100)));
    }
    const std::size_t n_expect = rng.below(4);
    for (std::size_t i = 0; i < n_expect; ++i) {
        iat::exp::Expectation e;
        e.lhs.metric = "m" + randomToken(rng);
        for (std::size_t k = rng.below(3); k > 0; --k)
            e.lhs.selector.emplace_back("ax" + std::to_string(k),
                                        randomToken(rng));
        e.op = static_cast<iat::exp::Expectation::Op>(rng.below(5));
        if (rng.below(2))
            e.factor = static_cast<double>(rng.below(1000)) / 8.0;
        if (rng.below(2)) {
            e.rhs.metric = "r" + randomToken(rng);
            e.rhs.selector.emplace_back("p0", randomToken(rng));
        } else {
            // Any finite double round-trips through text().
            e.number = (static_cast<double>(rng.next() >> 11) -
                        4.5e15) / 3.0e7;
        }
        spec.expect.push_back(std::move(e));
    }
    return spec;
}

} // namespace

TEST(SpecRoundTrip, RandomizedSpecsRoundTrip)
{
    iat::Rng rng(0x5bec0de5u);
    for (int iter = 0; iter < 500; ++iter) {
        SCOPED_TRACE(iter);
        const ExperimentSpec spec = randomSpec(rng);
        const ExperimentSpec back =
            ExperimentSpec::parse(spec.serialize(), "random");
        ASSERT_EQ(spec, back) << spec.serialize();
        ASSERT_EQ(spec.hash(1.0), back.hash(1.0));
    }
}
