/**
 * @file
 * The trial interface between experiment specs and simulation code:
 * a TrialContext (parameters + seed + scale) goes in, a TrialResult
 * (named scalar metrics) comes out, and a TrialRegistry maps sweep
 * names to the factories that do the work.
 *
 * Factories must be self-contained: construct your own
 * sim::Platform/Engine/world from the context, run, and report.
 * The parallel runner executes factories concurrently on plain
 * std::threads, which is safe precisely because the simulator keeps
 * all mutable state inside those per-trial objects (DESIGN.md SS10
 * states the contract). Factories signal user-level failure by
 * throwing std::exception; the runner records the message and moves
 * on to the next trial.
 */

#ifndef IATSIM_EXP_TRIAL_HH
#define IATSIM_EXP_TRIAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace iat::exp {

/**
 * Everything one trial needs to run. Parameters are ordered
 * (axis file order, then spec constants) so serialization is
 * deterministic.
 */
struct TrialContext
{
    std::string sweep;      ///< registered factory name
    std::size_t index = 0;  ///< position in the expanded trial list
    std::uint64_t seed = 0; ///< per-trial seed (see spec seed_mode)
    double scale = 1.0;     ///< measurement-window scale (--quick)

    /**
     * Fault-plan digest (16 hex digits), non-empty only when the spec
     * has a `[fault]` section and the trial runs it (faulted()):
     * FNV-1a of the fault knob lines plus the effective injector
     * seed, so chaos trials are attributable to an exact plan from
     * the JSONL record alone.
     */
    std::string fault_hash;

    std::vector<std::pair<std::string, std::string>> params;

    /** Raw lookup; nullptr when the parameter is absent. */
    const std::string *find(const std::string &name) const;

    /**
     * Whether the trial runs its spec's `[fault]` plan: it does
     * unless its `faults` param is 0, the fault A/B axis of
     * bakeoff.exp, chaos.exp and cluster_chaos.exp. Trial bodies ask
     * here before building a plan from the `fault.*` params, which
     * faults=0 trials keep.
     */
    bool faulted() const;

    /// @name Typed parameter getters
    /// Unlike CliArgs (whose bad-value path is fatal()), these throw
    /// std::runtime_error so one malformed trial fails in isolation.
    /// The require* forms also throw when the parameter is missing.
    /// @{
    std::string getString(const std::string &name,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &name, std::int64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def = false) const;

    std::string requireString(const std::string &name) const;
    std::int64_t requireInt(const std::string &name) const;
    double requireDouble(const std::string &name) const;
    /// @}
};

/**
 * A trial's output: named scalar metrics, in emission order (kept
 * stable so the JSONL record is byte-deterministic).
 */
struct TrialResult
{
    std::vector<std::pair<std::string, double>> metrics;

    void
    add(const std::string &name, double value)
    {
        metrics.emplace_back(name, value);
    }
};

/** The factory signature every sweep body implements. */
using TrialFn = std::function<TrialResult(const TrialContext &)>;

/**
 * Name -> factory map. Registries are plain objects (no global
 * singleton): front ends build one, call the registration hooks they
 * link (e.g. bench::registerPaperSweeps), and pass it down. All
 * mutation happens before the runner starts threads.
 */
class TrialRegistry
{
  public:
    struct Entry
    {
        std::string name;
        std::string description;
        TrialFn fn;
    };

    /** Register @p fn under @p name; throws on duplicates. */
    void add(const std::string &name, const std::string &description,
             TrialFn fn);

    /** nullptr when @p name is not registered. */
    const Entry *find(const std::string &name) const;

    /** All entries, sorted by name. */
    std::vector<const Entry *> entries() const;

  private:
    std::vector<Entry> entries_;
};

} // namespace iat::exp

#endif // IATSIM_EXP_TRIAL_HH
