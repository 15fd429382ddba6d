/**
 * @file
 * Campaign execution: expand a spec, filter already-recorded trials
 * (--resume), run the rest on the worker pool, stream records to
 * <out>/results.jsonl, and write <out>/manifest.json.
 *
 * Used by the iatexp driver and by tests; everything here reports
 * errors by throwing (std::runtime_error / SpecError) so front ends
 * choose their own exit behavior.
 */

#ifndef IATSIM_EXP_CAMPAIGN_HH
#define IATSIM_EXP_CAMPAIGN_HH

#include <string>

#include "exp/results.hh"
#include "exp/spec.hh"
#include "exp/trial.hh"

namespace iat::exp {

/** The --quick measurement-window scale (mirrors bench::quickScale). */
inline constexpr double kQuickScale = 0.3;

/** Campaign knobs, straight from the iatexp command line. */
struct CampaignOptions
{
    std::string out_dir;       ///< results directory (created)
    unsigned jobs = 0;         ///< 0 = hardware_concurrency
    bool quick = false;        ///< scale windows by kQuickScale
    bool resume = false;       ///< skip trials already recorded
    bool retry_failed = false; ///< with resume: rerun failed records
    bool progress = true;      ///< stderr progress line
};

/** What happened, plus where the artifacts are. */
struct CampaignSummary
{
    RunStats stats;
    std::string spec_hash;
    std::string results_path;
    std::string manifest_path;
    /** Every trial has a record; results.jsonl is in canonical
     *  (trial-index) order. */
    bool complete = false;
    /** The spec's [expect] lines checked against every record in
     *  results.jsonl, resumed ones included. */
    std::vector<ExpectVerdict> verdicts;
};

/**
 * Run @p spec's campaign. Throws when the sweep isn't in
 * @p registry, when the output directory can't be created, when
 * results.jsonl already exists without --resume, or when existing
 * records carry a different spec hash (the directory belongs to a
 * different campaign -- mixing would corrupt both).
 */
CampaignSummary runCampaign(const ExperimentSpec &spec,
                            const TrialRegistry &registry,
                            const CampaignOptions &options);

} // namespace iat::exp

#endif // IATSIM_EXP_CAMPAIGN_HH
