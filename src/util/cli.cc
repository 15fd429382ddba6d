/**
 * @file
 * CliArgs implementation.
 */

#include "util/cli.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace iat {

CliArgs::CliArgs(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg.erase(0, 2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags_[arg] = argv[++i];
        } else {
            flags_[arg] = "true";
        }
    }
    // Every binary parses its arguments through CliArgs, so plumbing
    // the logger level here makes --log-level (and the
    // IATSIM_LOG_LEVEL fallback) work everywhere without per-tool
    // wiring. The same argument makes the telemetry family known
    // here: obs::TelemetryConfig::fromCli reads them lazily.
    applyLogLevel(getString("log-level", ""));
    declareKnown({"trace", "metrics", "sample-interval"});
}

bool
CliArgs::has(const std::string &name) const
{
    known_.insert(name);
    return flags_.count(name) != 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    known_.insert(name);
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t def) const
{
    known_.insert(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    char *end = nullptr;
    const std::int64_t value = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --%s expects an integer, got '%s'", name.c_str(),
              it->second.c_str());
    return value;
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    known_.insert(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --%s expects a number, got '%s'", name.c_str(),
              it->second.c_str());
    return value;
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    known_.insert(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    return it->second != "false" && it->second != "0";
}

void
CliArgs::declareKnown(std::initializer_list<const char *> names) const
{
    for (const char *name : names)
        known_.insert(name);
}

void
CliArgs::requireKnown() const
{
    for (const auto &[name, value] : flags_) {
        if (known_.count(name) == 0)
            fatal("unknown flag --%s", name.c_str());
    }
}

} // namespace iat
