/**
 * @file
 * Campaign execution; see campaign.hh.
 */

#include "exp/campaign.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "exp/runner.hh"

namespace iat::exp {

CampaignSummary
runCampaign(const ExperimentSpec &spec, const TrialRegistry &registry,
            const CampaignOptions &options)
{
    const auto *entry = registry.find(spec.sweep);
    if (!entry) {
        std::string known;
        for (const auto *e : registry.entries())
            known += (known.empty() ? "" : ", ") + e->name;
        throw std::runtime_error("unknown sweep '" + spec.sweep +
                                 "' (registered: " + known + ")");
    }

    const double scale = options.quick ? kQuickScale : 1.0;
    CampaignSummary summary;
    summary.spec_hash = spec.hash(scale);

    std::filesystem::create_directories(options.out_dir);
    summary.results_path = options.out_dir + "/results.jsonl";
    summary.manifest_path = options.out_dir + "/manifest.json";

    // Resume: a trial with a record is done. Failed records are
    // honored too (the trial ran to a terminal state) unless the
    // caller asked to retry them; canonicalization keeps the rerun's
    // record because it is appended later.
    std::set<std::size_t> recorded;
    const bool have_results =
        std::filesystem::exists(summary.results_path);
    if (have_results && !options.resume) {
        throw std::runtime_error(
            summary.results_path +
            " already exists; pass --resume to continue that "
            "campaign or point --out at a fresh directory");
    }
    if (options.resume) {
        // A kill mid-write can leave a final line with no trailing
        // newline; heal it so the first record appended below starts
        // on its own line instead of merging into the torn tail
        // (which would silently drop both).
        ensureTrailingNewline(summary.results_path);
        for (const auto &record :
             readRecordsFile(summary.results_path)) {
            if (record.spec_hash != summary.spec_hash) {
                throw std::runtime_error(
                    summary.results_path +
                    " holds records for a different campaign "
                    "(spec_hash " + record.spec_hash + " vs " +
                    summary.spec_hash +
                    "); refusing to mix results");
            }
            if (record.status == TrialStatus::Ok ||
                !options.retry_failed) {
                recorded.insert(record.trial);
            }
        }
    }

    const auto all_trials = spec.expand(scale);
    std::vector<TrialContext> pending;
    for (const auto &trial : all_trials) {
        if (recorded.count(trial.index) == 0)
            pending.push_back(trial);
    }

    // Determinism guard (cluster sweeps): a trial that runs its own
    // worker threads declares them in a "threads" parameter. Cap the
    // runner so jobs x trial-threads never exceeds the machine --
    // oversubscription cannot change simulation results (the epoch
    // barrier guarantees that), but it destroys the wall-clock
    // scaling the cluster benches measure and report.
    unsigned trial_threads = 1;
    for (const auto &trial : pending) {
        const auto t = trial.getInt("threads", 1);
        if (t > static_cast<std::int64_t>(trial_threads))
            trial_threads = static_cast<unsigned>(t);
    }
    unsigned jobs = effectiveJobs(options.jobs);
    if (trial_threads > 1) {
        const unsigned hw = effectiveJobs(0);
        jobs = std::min(jobs, std::max(1u, hw / trial_threads));
    }

    RunStats &stats = summary.stats;
    stats.jobs = jobs;
    stats.trial_threads = trial_threads;
    stats.total = all_trials.size();
    stats.skipped = all_trials.size() - pending.size();

    RunnerConfig runner_cfg;
    runner_cfg.jobs = jobs;
    runner_cfg.progress = options.progress;
    runner_cfg.label = spec.name;

    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = runTrials(
        pending, entry->fn, runner_cfg,
        [&](const TrialContext &ctx, const TrialOutcome &outcome) {
            // Streamed append under the sink lock: one line per
            // record keeps a kill's damage to a truncated tail.
            if (!appendLine(summary.results_path,
                            serializeRecord(summary.spec_hash, ctx,
                                            outcome))) {
                throw std::runtime_error("cannot append to " +
                                         summary.results_path);
            }
        });
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    stats.ran = outcomes.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        outcomes[i].status == TrialStatus::Ok ? ++stats.ok
                                              : ++stats.failed;
        stats.trial_wall_seconds[pending[i].index] =
            outcomes[i].wall_seconds;
    }

    // Campaign complete (every trial recorded): rewrite the results
    // in trial order, the canonical form in which --jobs=1 and
    // --jobs=N runs of the same spec compare bit-identical.
    summary.complete = stats.skipped + stats.ran == stats.total;
    if (summary.complete && !canonicalizeResults(summary.results_path))
        throw std::runtime_error("cannot rewrite " +
                                 summary.results_path);
    summary.verdicts = checkExpectations(
        spec.expect, readRecordsFile(summary.results_path));

    if (!writeManifest(summary.manifest_path, spec, scale, stats))
        throw std::runtime_error("cannot write " +
                                 summary.manifest_path);
    return summary;
}

} // namespace iat::exp
