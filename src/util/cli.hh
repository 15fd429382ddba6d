/**
 * @file
 * Minimal command-line parsing for bench and example binaries.
 *
 * Flags take the forms --name=value or --name value; bare --name sets
 * a boolean. Every bench accepts --seed, --csv=<path> and experiment
 * specific overrides through this parser, so runs are scriptable
 * without a heavyweight dependency.
 *
 * Two flag families are applied globally by construction:
 * --log-level=quiet|warn|info|debug (with IATSIM_LOG_LEVEL as the
 * environment fallback) feeds the Logger, and --trace / --metrics /
 * --sample-interval feed obs::Telemetry (see obs/telemetry.hh).
 *
 * Unknown flags are fatal: the parser accepts any --flag, so a typo
 * (--sed=5) would otherwise fall through to the getter defaults
 * without a trace. Every flag a binary looks up through has()/get*()
 * is recorded as known, and binaries can pre-register flags they
 * only read later with declareKnown(). Every program calls
 * requireKnown() once it has read its flags and before it simulates
 * anything, so a typo stops the run instead of changing it.
 */

#ifndef IATSIM_UTIL_CLI_HH
#define IATSIM_UTIL_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace iat {

/** Parsed command-line flags with typed accessors and defaults. */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &name, std::int64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def = false) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

    /// @name Unknown flags (see file comment)
    /// @{

    /** Register flags as known without reading them. */
    void declareKnown(std::initializer_list<const char *> names) const;

    /** fatal() on the first parsed flag never declared or looked
     *  up. Call after all lookups. */
    void requireKnown() const;
    /// @}

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;

    /** Flags declared or looked up; mutable so the const getters can
     *  record what the binary actually understands. */
    mutable std::set<std::string> known_;
};

} // namespace iat

#endif // IATSIM_UTIL_CLI_HH
