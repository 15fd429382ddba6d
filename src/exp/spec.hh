/**
 * @file
 * Declarative experiment specs: one small INI-style text file
 * describes a whole sweep (which registered trial body to run, which
 * parameter axes to cross, which campaign seed to start from), and
 * expands deterministically into a flat trial list the runner can
 * shard across threads.
 *
 * Format (see the live examples under experiments/):
 *
 *   # comment (';' also works)
 *   name = fig03-rx-ring        # campaign name (output labelling)
 *   sweep = fig03               # trial factory, exp::TrialRegistry
 *   seed = 1                    # campaign seed (default 1)
 *   seed_mode = shared          # shared | derived (default derived)
 *
 *   [params]                    # constants, merged into every trial
 *   burst = 32
 *
 *   [axis]                      # the cross-product axes, in order
 *   frame_bytes = 64 1500
 *   ring_entries = 1024 512 64  # whitespace and/or commas separate
 *
 *   [fault]                      # optional fault-injection plan
 *   read_noise = 0.2             # fault::FaultPlan knobs, see
 *   write_reject = 0.2           # src/fault/plan.hh
 *
 *   [expect]                     # optional campaign verdicts
 *   rate[ring_entries=64] < 0.1 * rate[ring_entries=1024]
 *   jain > 0                     # on every record
 *
 * An `[expect]` line is one comparison,
 *
 *   metric[selector] op [factor *] (number | metric[selector])
 *
 * with op one of == < <= > >=. A selector is a list of param=value
 * pairs (separated by commas and/or whitespace) that a record's
 * params must all match; no selector means every record. The left
 * side must select at least one record and hold on each of them; a
 * right-side metric must select exactly one record. A right-side
 * token that starts with a digit, sign or '.' is a number. There is
 * no other arithmetic. `iatexp run` checks the lines against the
 * finished results.jsonl (exp/results.hh). They are verdicts about a
 * campaign, not part of its identity, so they stay out of
 * canonical() and spec_hash.
 *
 * Expansion order is the file's: the first axis varies slowest, the
 * last fastest, so trial indices are stable as long as the spec text
 * is. Trial seeds come from the campaign seed: in `derived` mode
 * trial k gets the k-th output of the splitmix64 stream seeded with
 * the campaign seed (see deriveTrialSeed), so trials are decorrelated
 * but individually reproducible; `shared` mode hands every trial the
 * campaign seed verbatim, which is how the paper-figure benches run
 * (one seed across the whole figure).
 *
 * Parsing needs nothing beyond the standard library, per the repo's
 * no-new-dependencies rule.
 */

#ifndef IATSIM_EXP_SPEC_HH
#define IATSIM_EXP_SPEC_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/trial.hh"

namespace iat::exp {

/** Malformed spec text; what() carries file/line context. */
class SpecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One parameter axis: a name and its swept values, in file order. */
struct AxisSpec
{
    std::string name;
    std::vector<std::string> values;

    bool operator==(const AxisSpec &) const = default;
};

/**
 * One side of an `[expect]` comparison: @p metric of the records
 * whose params match every @p selector pair (empty: every record).
 */
struct MetricRef
{
    std::string metric;
    std::vector<std::pair<std::string, std::string>> selector;

    bool operator==(const MetricRef &) const = default;
};

/** @p value as the shortest text that parses back to it exactly
 *  (std::to_chars): how `[expect]` lines and verdicts print numbers,
 *  so two values that differ never print alike. */
std::string formatNumber(double value);

/** One `[expect]` line: lhs op factor * rhs (see the file comment). */
struct Expectation
{
    enum class Op { Eq, Lt, Le, Gt, Ge };

    MetricRef lhs;
    Op op = Op::Eq;
    double factor = 1.0;
    /** The right side: this metric when rhs.metric is non-empty,
     *  else @p number. */
    MetricRef rhs;
    double number = 0.0;

    /** Parse one line; throws SpecError saying what is malformed. */
    static Expectation parse(const std::string &line);

    /** The line in canonical form; parse(text()) == *this. */
    std::string text() const;

    bool operator==(const Expectation &) const = default;
};

/**
 * Trial seed derivation: position @p trial_index of the splitmix64
 * stream seeded with @p campaign_seed (splitmix64's increment is a
 * constant gamma, so the stream can be jumped to any slot in O(1)).
 */
std::uint64_t deriveTrialSeed(std::uint64_t campaign_seed,
                              std::uint64_t trial_index);

/** A parsed experiment spec; see the file comment for the format. */
struct ExperimentSpec
{
    /** How trial seeds relate to the campaign seed. */
    enum class SeedMode
    {
        Derived, ///< splitmix64(campaign seed, trial index)
        Shared,  ///< every trial runs the campaign seed itself
    };

    std::string name;
    std::string sweep;
    std::uint64_t seed = 1;
    SeedMode seed_mode = SeedMode::Derived;
    /** Constants merged into every trial's parameter list. */
    std::vector<std::pair<std::string, std::string>> constants;
    std::vector<AxisSpec> axes;

    /**
     * The `[fault]` section: fault-injection knobs (fault::FaultPlan
     * keys), kept as ordered key/value text like constants. Merged
     * into every trial's parameter list with a `fault.` prefix, and
     * folded into the canonical text (hence spec_hash) only when
     * non-empty, so fault-free specs hash exactly as before.
     */
    std::vector<std::pair<std::string, std::string>> fault;

    /** The `[expect]` section, in file order. Outside canonical(). */
    std::vector<Expectation> expect;

    /** Parse spec text; throws SpecError with @p origin + line info. */
    static ExperimentSpec parse(const std::string &text,
                                const std::string &origin = "<spec>");

    /** Read and parse a spec file; throws SpecError. */
    static ExperimentSpec loadFile(const std::string &path);

    /** Number of trials the cross product expands to (>= 1). */
    std::size_t trialCount() const;

    /**
     * Canonical one-line-per-field rendering of everything that
     * defines trial identity (name, sweep, seed, seed mode, scale,
     * constants, axes, fault knobs; not the expectations). Two
     * campaigns with equal canonical text are the same campaign; its
     * FNV-1a hash is the spec_hash stamped into every result record,
     * which is how --resume refuses to mix records from different
     * sweeps in one directory.
     */
    std::string canonical(double scale) const;

    /** FNV-1a 64 of canonical(), as 16 hex digits. */
    std::string hash(double scale) const;

    /**
     * Render the spec back into the INI format parse() reads. The
     * round trip parse(serialize(s)) == s holds for any spec whose
     * strings carry no newlines or comment characters ('#', ';') --
     * which parse() can never produce, so specs that came from
     * parse() always round-trip exactly (the fuzzer's repro files
     * rely on this).
     */
    std::string serialize() const;

    /** Field-wise equality; backs the round-trip property tests. */
    bool operator==(const ExperimentSpec &) const = default;

    /**
     * Expand the cross product into the deterministic trial list.
     * Each context carries the sweep name, its index, its seed (per
     * seed_mode), @p scale, and the merged parameter list (axes in
     * file order, then constants).
     */
    std::vector<TrialContext> expand(double scale) const;
};

/** FNV-1a 64-bit hash of @p text (spec hashing; stable, unseeded). */
std::uint64_t fnv1a64(const std::string &text);

} // namespace iat::exp

#endif // IATSIM_EXP_SPEC_HH
