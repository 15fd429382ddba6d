/**
 * @file
 * Structured campaign results: one JSONL record per trial plus a
 * campaign manifest.json.
 *
 * The record is deliberately *deterministic*: fixed key order, axis
 * parameters in spec order, metrics in emission order, doubles
 * printed with %.17g. Two runs of the same spec therefore produce
 * byte-identical records regardless of --jobs, which is the property
 * the campaign smoke test (and CI) pin. Anything nondeterministic --
 * wall-clock per trial, worker count, append order while running --
 * lives in the manifest, never in the record.
 *
 * results.jsonl is append-only while a campaign runs (each record is
 * one write under the sink mutex, so a kill leaves at most one
 * truncated line, which the resume reader skips). When every trial
 * has a record the file is rewritten in trial order -- the canonical
 * form in which --jobs=1 and --jobs=N campaigns compare bit-equal
 * end to end.
 */

#ifndef IATSIM_EXP_RESULTS_HH
#define IATSIM_EXP_RESULTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "exp/trial.hh"

namespace iat::exp {

/** Terminal state of one trial. */
enum class TrialStatus
{
    Ok,
    Failed,
};

const char *toString(TrialStatus status);

/** What the runner hands the sink when a trial finishes. */
struct TrialOutcome
{
    TrialStatus status = TrialStatus::Ok;
    std::string error;         ///< exception text when Failed
    double wall_seconds = 0.0; ///< manifest-only (nondeterministic)
    TrialResult result;
};

/**
 * Serialize one record line (no trailing newline). Key order:
 * spec_hash, sweep, trial, seed, params, status, [error,] metrics.
 */
std::string serializeRecord(const std::string &spec_hash,
                            const TrialContext &ctx,
                            const TrialOutcome &outcome);

/** A record read back from results.jsonl (resume and [expect]). */
struct RecordInfo
{
    std::string spec_hash;
    std::size_t trial = 0;
    TrialStatus status = TrialStatus::Ok;
    std::string line; ///< the verbatim record text
    std::vector<std::pair<std::string, std::string>> params;
    /** Metrics in record order; a null (non-finite) one is left out. */
    std::vector<std::pair<std::string, double>> metrics;
};

/**
 * Parse every well-formed record in @p jsonl_text (one JSON object
 * per line). Unparseable or foreign lines are skipped: a campaign
 * killed mid-write leaves a truncated tail that must not poison the
 * restart.
 */
std::vector<RecordInfo> readRecords(const std::string &jsonl_text);

/** readRecords() over a file; empty when the file doesn't exist. */
std::vector<RecordInfo> readRecordsFile(const std::string &path);

/**
 * Rewrite @p path in canonical order: last record per trial index
 * wins (a --retry-failed rerun supersedes the failed record), sorted
 * by trial index. Returns false on I/O failure.
 */
bool canonicalizeResults(const std::string &path);

/** Append @p line + '\n' to @p path, flushing before returning. */
bool appendLine(const std::string &path, const std::string &line);

/**
 * If @p path exists and its last byte isn't '\n', append one. Heals
 * the torn tail a killed campaign leaves so later appends start on a
 * fresh line. Returns false only on I/O failure.
 */
bool ensureTrailingNewline(const std::string &path);

/** Per-invocation run stats recorded in the manifest. */
struct RunStats
{
    unsigned jobs = 0;
    /** Worker threads the widest trial runs internally (cluster
     *  sweeps declare a "threads" param); the campaign caps jobs so
     *  jobs x trial_threads stays within the machine. */
    unsigned trial_threads = 1;
    std::size_t total = 0;   ///< trials in the expanded list
    std::size_t ran = 0;     ///< executed this invocation
    std::size_t ok = 0;      ///< of ran
    std::size_t failed = 0;  ///< of ran
    std::size_t skipped = 0; ///< resumed past (record already there)
    double wall_seconds = 0.0;
    /** trial index -> wall seconds, for trials run this invocation. */
    std::map<std::size_t, double> trial_wall_seconds;
};

/**
 * Write manifest.json: campaign identity (name, sweep, spec hash,
 * seed, seed mode, scale, trial count, axes) plus this invocation's
 * RunStats. Returns false on I/O failure.
 */
bool writeManifest(const std::string &path, const ExperimentSpec &spec,
                   double scale, const RunStats &stats);

/** One `[expect]` line's outcome over a campaign's records. */
struct ExpectVerdict
{
    bool pass = false;
    std::string text;   ///< the expectation, canonical form
    std::string detail; ///< the values compared, or why it failed
};

/**
 * Check each of @p expect against @p records, in order. A line
 * fails when its left side selects no record, a right-side metric
 * selects other than exactly one, a selected record lacks the
 * metric (or holds null), or the comparison is false on any
 * left-side record.
 */
std::vector<ExpectVerdict>
checkExpectations(const std::vector<Expectation> &expect,
                  const std::vector<RecordInfo> &records);

/** Shortest %.17g rendering; non-finite values become null. */
std::string jsonNumber(double value);

} // namespace iat::exp

#endif // IATSIM_EXP_RESULTS_HH
