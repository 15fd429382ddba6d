/**
 * @file
 * Unit tests for CliArgs.
 */

#include "util/cli.hh"

#include <gtest/gtest.h>

#include <vector>

namespace iat {
namespace {

CliArgs
makeArgs(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return CliArgs(static_cast<int>(argv.size()),
                   const_cast<char **>(argv.data()));
}

TEST(Cli, EqualsForm)
{
    const auto args = makeArgs({"--seed=42", "--name=foo"});
    EXPECT_EQ(args.getInt("seed", 0), 42);
    EXPECT_EQ(args.getString("name", ""), "foo");
}

TEST(Cli, SpaceForm)
{
    const auto args = makeArgs({"--seed", "7"});
    EXPECT_EQ(args.getInt("seed", 0), 7);
}

TEST(Cli, BareFlagIsTrue)
{
    const auto args = makeArgs({"--verbose"});
    EXPECT_TRUE(args.getBool("verbose"));
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_FALSE(args.has("quiet"));
}

TEST(Cli, BoolFalseValues)
{
    const auto args = makeArgs({"--a=false", "--b=0", "--c=yes"});
    EXPECT_FALSE(args.getBool("a", true));
    EXPECT_FALSE(args.getBool("b", true));
    EXPECT_TRUE(args.getBool("c", false));
}

TEST(Cli, Defaults)
{
    const auto args = makeArgs({});
    EXPECT_EQ(args.getInt("missing", 5), 5);
    EXPECT_EQ(args.getDouble("missing", 2.5), 2.5);
    EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
    EXPECT_FALSE(args.getBool("missing"));
}

TEST(Cli, Positional)
{
    const auto args = makeArgs({"one", "--flag=x", "two"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "one");
    EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, DoubleParsing)
{
    const auto args = makeArgs({"--rate=1.5e6"});
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 1.5e6);
}

TEST(Cli, HexInt)
{
    const auto args = makeArgs({"--mask=0x600"});
    EXPECT_EQ(args.getInt("mask", 0), 0x600);
}

TEST(Cli, LookupMarksFlagKnown)
{
    // has() and every getter count as a lookup.
    const auto args = makeArgs({"--seed=42", "--csv=x", "--quick"});
    args.getInt("seed", 0);
    args.has("csv");
    args.getBool("quick");
    args.requireKnown(); // must not exit
}

TEST(Cli, DeclareKnownCoversConditionalFlags)
{
    const auto args = makeArgs({"--quick"});
    args.declareKnown({"quick", "csv"});
    args.requireKnown(); // must not exit
}

TEST(Cli, GlobalFlagFamiliesAreKnownByConstruction)
{
    // --log-level is consumed by the constructor; the telemetry
    // family is read lazily by obs::TelemetryConfig::fromCli.
    const auto args = makeArgs({"--log-level=info", "--trace=t.jsonl",
                                "--metrics=m.csv",
                                "--sample-interval=5"});
    args.requireKnown(); // must not exit
}

TEST(Cli, RequireKnownPassesWhenAllFlagsRead)
{
    const auto args = makeArgs({"--jobs=4"});
    args.getInt("jobs", 0);
    args.requireKnown(); // must not exit
}

TEST(CliDeath, RequireKnownExitsOnUnknownFlag)
{
    const auto args = makeArgs({"--jbos=4"});
    args.getInt("jobs", 0);
    EXPECT_EXIT(args.requireKnown(), testing::ExitedWithCode(1),
                "unknown flag --jbos");
}

TEST(CliDeath, BareFlagTypoIsFatal)
{
    const auto args = makeArgs({"--seed=5", "--quik"});
    args.getInt("seed", 0);
    args.getBool("quick"); // the flag the user presumably meant
    EXPECT_EXIT(args.requireKnown(), testing::ExitedWithCode(1),
                "unknown flag --quik");
}

TEST(CliDeath, BadIntExits)
{
    const auto args = makeArgs({"--seed=abc"});
    EXPECT_EXIT(args.getInt("seed", 0), testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(CliDeath, BadDoubleExits)
{
    const auto args = makeArgs({"--rate=xyz"});
    EXPECT_EXIT(args.getDouble("rate", 0.0),
                testing::ExitedWithCode(1), "expects a number");
}

} // namespace
} // namespace iat
