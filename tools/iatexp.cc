/**
 * @file
 * iatexp -- the experiment-campaign driver.
 *
 * Subcommands:
 *
 *   iatexp run <spec.exp> [--out=DIR] [--jobs=N] [--seed=S]
 *          [--quick] [--resume] [--retry-failed] [--no-progress]
 *       Expand the spec's parameter cross product and run its trials
 *       on a worker pool (default: one thread per hardware thread).
 *       Each finished trial appends one deterministic JSONL record
 *       to DIR/results.jsonl (default DIR: campaign-<name>); wall
 *       times and run stats go to DIR/manifest.json. --resume skips
 *       trials whose records already exist, so a killed campaign
 *       restarts where it stopped; --retry-failed additionally
 *       reruns failed trials. Then every `[expect]` line of the spec
 *       is checked against the finished results.jsonl, resumed
 *       records included, with one verdict printed per line. The
 *       exit status is 1 if a trial failed or an expectation did
 *       not hold.
 *
 *   iatexp expand <spec.exp> [--quick] [--seed=S]
 *       Print the trial list (index, seed, parameters) without
 *       running anything -- the dry-run view of a campaign.
 *
 *   iatexp list
 *       Print the registered sweeps.
 *
 * Unknown flags are an error here (CliArgs::requireKnown): a typo'd
 * flag silently falling back to a default could invalidate hours of
 * campaign, so iatexp runs the parser in strict mode.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "bench/sweeps.hh"
#include "exp/campaign.hh"
#include "exp/spec.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace {

using namespace iat;

void
usage()
{
    std::printf(
        "usage: iatexp <command> [flags]\n"
        "  run <spec.exp>     run a campaign, then check its "
        "[expect] lines\n"
        "      --out=DIR      results directory "
        "(default campaign-<name>)\n"
        "      --jobs=N       worker threads "
        "(default: hardware concurrency)\n"
        "      --seed=S       override the spec's campaign seed\n"
        "      --quick        shrink measurement windows "
        "(smoke scale)\n"
        "      --resume       skip trials already recorded\n"
        "      --retry-failed with --resume: rerun failed trials\n"
        "      --no-progress  suppress the stderr progress line\n"
        "  expand <spec.exp>  print the trial list without running\n"
        "      --quick --seed=S as above\n"
        "  list               print registered sweeps\n");
}

exp::TrialRegistry
registry()
{
    exp::TrialRegistry reg;
    bench::registerPaperSweeps(reg);
    bench::registerBakeoffSweeps(reg);
    bench::registerValidationSweeps(reg);
    bench::registerClusterSweeps(reg);
    return reg;
}

/** Load the spec named by the first free argument, applying --seed. */
exp::ExperimentSpec
loadSpec(const CliArgs &args)
{
    if (args.positional().size() < 2)
        fatal("missing spec file (iatexp %s <spec.exp>)",
              args.positional()[0].c_str());
    auto spec =
        exp::ExperimentSpec::loadFile(args.positional()[1]);
    if (args.has("seed")) {
        spec.seed =
            static_cast<std::uint64_t>(args.getInt("seed", 1));
    }
    return spec;
}

int
cmdList()
{
    const auto reg = registry();
    std::printf("registered sweeps:\n");
    for (const auto *entry : reg.entries()) {
        std::printf("  %-8s %s\n", entry->name.c_str(),
                    entry->description.c_str());
    }
    return 0;
}

int
cmdExpand(const CliArgs &args)
{
    const auto spec = loadSpec(args);
    const double scale =
        args.getBool("quick") ? exp::kQuickScale : 1.0;
    std::printf("campaign %s  sweep=%s  trials=%zu  spec_hash=%s\n",
                spec.name.c_str(), spec.sweep.c_str(),
                spec.trialCount(), spec.hash(scale).c_str());
    for (const auto &trial : spec.expand(scale)) {
        std::printf("  #%-4zu seed=%-20llu", trial.index,
                    static_cast<unsigned long long>(trial.seed));
        for (const auto &[key, value] : trial.params)
            std::printf(" %s=%s", key.c_str(), value.c_str());
        std::printf("\n");
    }
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    const auto spec = loadSpec(args);

    exp::CampaignOptions options;
    options.out_dir =
        args.getString("out", "campaign-" + spec.name);
    options.jobs = static_cast<unsigned>(args.getInt("jobs", 0));
    options.quick = args.getBool("quick");
    options.resume = args.getBool("resume");
    options.retry_failed = args.getBool("retry-failed");
    options.progress = !args.getBool("no-progress");

    const auto reg = registry();
    const auto summary = exp::runCampaign(spec, reg, options);

    std::printf("campaign %s: %zu trials (%zu ok, %zu failed, "
                "%zu resumed) in %.1fs with %u jobs\n",
                spec.name.c_str(), summary.stats.total,
                summary.stats.ok, summary.stats.failed,
                summary.stats.skipped, summary.stats.wall_seconds,
                summary.stats.jobs);
    std::printf("results  %s%s\n", summary.results_path.c_str(),
                summary.complete ? " (canonical order)"
                                 : " (incomplete)");
    std::printf("manifest %s\n", summary.manifest_path.c_str());
    std::size_t held = 0;
    for (const auto &v : summary.verdicts) {
        std::printf("expect %-4s %s  (%s)\n", v.pass ? "ok" : "FAIL",
                    v.text.c_str(), v.detail.c_str());
        held += v.pass ? 1 : 0;
    }
    if (!summary.verdicts.empty())
        std::printf("expectations: %zu of %zu hold\n", held,
                    summary.verdicts.size());
    const bool ok = summary.stats.failed == 0 && summary.complete &&
                    held == summary.verdicts.size();
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace iat;
    const CliArgs args(argc, argv);
    // Strict flag checking: every flag any subcommand understands,
    // declared up front; the rest is fatal.
    args.declareKnown({"out", "jobs", "seed", "quick", "resume",
                       "retry-failed", "no-progress"});
    args.requireKnown();

    if (args.positional().empty()) {
        usage();
        return 1;
    }
    const std::string &cmd = args.positional()[0];
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "expand")
            return cmdExpand(args);
        if (cmd == "run")
            return cmdRun(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "iatexp: %s\n", e.what());
        return 1;
    }
    usage();
    return 1;
}
