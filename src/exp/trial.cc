/**
 * @file
 * TrialContext parameter access and the TrialRegistry.
 */

#include "exp/trial.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace iat::exp {

namespace {

[[noreturn]] void
badParam(const std::string &name, const std::string &value,
         const char *kind)
{
    throw std::runtime_error("parameter '" + name + "' expects " +
                             kind + ", got '" + value + "'");
}

} // namespace

const std::string *
TrialContext::find(const std::string &name) const
{
    for (const auto &[key, value] : params) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

bool
TrialContext::faulted() const
{
    return getInt("faults", 1) != 0;
}

std::string
TrialContext::getString(const std::string &name,
                        const std::string &def) const
{
    const auto *value = find(name);
    return value ? *value : def;
}

std::int64_t
TrialContext::getInt(const std::string &name, std::int64_t def) const
{
    const auto *value = find(name);
    if (!value)
        return def;
    char *end = nullptr;
    const std::int64_t parsed = std::strtoll(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0')
        badParam(name, *value, "an integer");
    return parsed;
}

double
TrialContext::getDouble(const std::string &name, double def) const
{
    const auto *value = find(name);
    if (!value)
        return def;
    char *end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0')
        badParam(name, *value, "a number");
    return parsed;
}

bool
TrialContext::getBool(const std::string &name, bool def) const
{
    const auto *value = find(name);
    if (!value)
        return def;
    return *value != "false" && *value != "0";
}

std::string
TrialContext::requireString(const std::string &name) const
{
    const auto *value = find(name);
    if (!value)
        throw std::runtime_error("missing parameter '" + name + "'");
    return *value;
}

std::int64_t
TrialContext::requireInt(const std::string &name) const
{
    requireString(name);
    return getInt(name, 0);
}

double
TrialContext::requireDouble(const std::string &name) const
{
    requireString(name);
    return getDouble(name, 0.0);
}

void
TrialRegistry::add(const std::string &name,
                   const std::string &description, TrialFn fn)
{
    if (find(name))
        throw std::runtime_error("sweep '" + name +
                                 "' registered twice");
    entries_.push_back({name, description, std::move(fn)});
}

const TrialRegistry::Entry *
TrialRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

std::vector<const TrialRegistry::Entry *>
TrialRegistry::entries() const
{
    std::vector<const Entry *> out;
    for (const auto &entry : entries_)
        out.push_back(&entry);
    std::sort(out.begin(), out.end(),
              [](const Entry *a, const Entry *b) {
                  return a->name < b->name;
              });
    return out;
}

} // namespace iat::exp
