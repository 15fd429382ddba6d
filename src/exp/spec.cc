/**
 * @file
 * Experiment spec parsing, hashing and cross-product expansion.
 */

#include "exp/spec.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "util/hash.hh"
#include "util/rng.hh"

namespace iat::exp {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

/** Split on whitespace and/or commas; empty tokens dropped. */
std::vector<std::string>
splitValues(const std::string &s)
{
    std::vector<std::string> out;
    std::string token;
    for (const char c : s) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
            if (!token.empty())
                out.push_back(std::move(token));
            token.clear();
        } else {
            token += c;
        }
    }
    if (!token.empty())
        out.push_back(std::move(token));
    return out;
}

[[noreturn]] void
specError(const std::string &origin, unsigned line,
          const std::string &what)
{
    throw SpecError(origin + ":" + std::to_string(line) + ": " + what);
}

const char *const kOps[] = {"==", "<", "<=", ">", ">="};

/** metric[selector] op [factor *] (number | metric[selector]) */
const std::regex &
expectGrammar()
{
    static const std::string ref = R"(([^\s\[\]=<>!*,]+)(?:\[([^\]]*)\])?)";
    static const std::string num = R"(([-+.\d][^\s*]*))";
    static const std::regex grammar("^" + ref + R"(\s*(==|<=|>=|<|>)\s*)" +
                                    "(?:" + num + R"(\s*\*\s*)?)" +
                                    "(?:" + num + "|" + ref + ")$");
    return grammar;
}

double
parseNumber(const std::string &token)
{
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (*end != '\0' || !std::isfinite(value))
        throw SpecError("expected a number, got '" + token + "'");
    return value;
}

MetricRef
parseRef(const std::string &metric, const std::string &selector)
{
    MetricRef ref{metric, {}};
    for (const auto &pair : splitValues(selector)) {
        const auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size() ||
            pair.find('=', eq + 1) != std::string::npos)
            throw SpecError("selector expects param=value, got '" + pair +
                            "'");
        ref.selector.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    return ref;
}

std::string
refText(const MetricRef &ref)
{
    std::string out = ref.metric;
    for (std::size_t k = 0; k < ref.selector.size(); ++k)
        out += (k ? "," : "[") + ref.selector[k].first + "=" +
               ref.selector[k].second;
    return ref.selector.empty() ? out : out + "]";
}

} // namespace

std::string
formatNumber(double value)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

Expectation
Expectation::parse(const std::string &line)
{
    std::smatch m;
    if (!std::regex_match(line, m, expectGrammar()))
        throw SpecError("'" + line + "' is not metric[selector] op "
                        "[factor *] (number | metric[selector]), op "
                        "one of == < <= > >=");
    Expectation e;
    e.lhs = parseRef(m[1], m[2]);
    e.op = static_cast<Op>(std::find(std::begin(kOps), std::end(kOps),
                                     m[3].str()) -
                           std::begin(kOps));
    if (m[4].matched)
        e.factor = parseNumber(m[4]);
    if (m[5].matched)
        e.number = parseNumber(m[5]);
    else
        e.rhs = parseRef(m[6], m[7]);
    return e;
}

std::string
Expectation::text() const
{
    std::string out =
        refText(lhs) + " " + kOps[static_cast<int>(op)] + " ";
    if (factor != 1.0)
        out += formatNumber(factor) + " * ";
    return out + (rhs.metric.empty() ? formatNumber(number)
                                     : refText(rhs));
}

std::uint64_t
deriveTrialSeed(std::uint64_t campaign_seed, std::uint64_t trial_index)
{
    // splitmix64 advances its state by a constant gamma per draw, so
    // "the trial_index-th output of the stream seeded with
    // campaign_seed" is a single jump + one mix, not a loop.
    std::uint64_t state =
        campaign_seed + trial_index * 0x9e3779b97f4a7c15ull;
    return splitmix64Next(state);
}

std::uint64_t
fnv1a64(const std::string &text)
{
    return iat::fnv1a64(text);
}

ExperimentSpec
ExperimentSpec::parse(const std::string &text, const std::string &origin)
{
    ExperimentSpec spec;
    enum class Section { Top, Params, Axis, Fault, Expect } section =
        Section::Top;

    std::istringstream in(text);
    std::string raw;
    unsigned lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        const auto comment = raw.find_first_of("#;");
        if (comment != std::string::npos)
            raw.erase(comment);
        const std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                specError(origin, lineno, "unterminated section");
            const std::string name = trim(line.substr(1, line.size() - 2));
            if (name == "params")
                section = Section::Params;
            else if (name == "axis")
                section = Section::Axis;
            else if (name == "fault")
                section = Section::Fault;
            else if (name == "expect")
                section = Section::Expect;
            else
                specError(origin, lineno,
                          "unknown section '[" + name + "]'");
            continue;
        }

        if (section == Section::Expect) {
            try {
                spec.expect.push_back(Expectation::parse(line));
            } catch (const SpecError &e) {
                specError(origin, lineno, e.what());
            }
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            specError(origin, lineno, "expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            specError(origin, lineno, "empty key");

        switch (section) {
          case Section::Top:
            if (key == "name") {
                spec.name = value;
            } else if (key == "sweep") {
                spec.sweep = value;
            } else if (key == "seed") {
                char *end = nullptr;
                spec.seed = std::strtoull(value.c_str(), &end, 0);
                if (end == value.c_str() || *end != '\0') {
                    specError(origin, lineno,
                              "seed expects an integer, got '" +
                                  value + "'");
                }
            } else if (key == "seed_mode") {
                if (value == "derived")
                    spec.seed_mode = SeedMode::Derived;
                else if (value == "shared")
                    spec.seed_mode = SeedMode::Shared;
                else
                    specError(origin, lineno,
                              "seed_mode is derived|shared, got '" +
                                  value + "'");
            } else {
                specError(origin, lineno,
                          "unknown key '" + key +
                              "' (name|sweep|seed|seed_mode, or a "
                              "[params]/[axis] section)");
            }
            break;
          case Section::Params:
            for (const auto &[existing, unused] : spec.constants) {
                if (existing == key) {
                    specError(origin, lineno,
                              "duplicate param '" + key + "'");
                }
            }
            spec.constants.emplace_back(key, value);
            break;
          case Section::Fault:
            for (const auto &[existing, unused] : spec.fault) {
                if (existing == key) {
                    specError(origin, lineno,
                              "duplicate fault knob '" + key + "'");
                }
            }
            spec.fault.emplace_back(key, value);
            break;
          case Section::Expect:
            break;
          case Section::Axis: {
            for (const auto &axis : spec.axes) {
                if (axis.name == key) {
                    specError(origin, lineno,
                              "duplicate axis '" + key + "'");
                }
            }
            AxisSpec axis;
            axis.name = key;
            axis.values = splitValues(value);
            if (axis.values.empty()) {
                specError(origin, lineno,
                          "axis '" + key + "' has no values");
            }
            spec.axes.push_back(std::move(axis));
            break;
          }
        }
    }

    if (spec.sweep.empty())
        specError(origin, lineno, "spec never set 'sweep'");
    if (spec.name.empty())
        spec.name = spec.sweep;
    return spec;
}

ExperimentSpec
ExperimentSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SpecError("cannot open spec file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

std::size_t
ExperimentSpec::trialCount() const
{
    std::size_t count = 1;
    for (const auto &axis : axes)
        count *= axis.values.size();
    return count;
}

std::string
ExperimentSpec::canonical(double scale) const
{
    std::ostringstream out;
    out << "name=" << name << '\n';
    out << "sweep=" << sweep << '\n';
    out << "seed=" << seed << '\n';
    out << "seed_mode="
        << (seed_mode == SeedMode::Shared ? "shared" : "derived")
        << '\n';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", scale);
    out << "scale=" << buf << '\n';
    for (const auto &[key, value] : constants)
        out << "param." << key << '=' << value << '\n';
    for (const auto &axis : axes) {
        out << "axis." << axis.name << '=';
        for (std::size_t i = 0; i < axis.values.size(); ++i)
            out << (i ? "," : "") << axis.values[i];
        out << '\n';
    }
    // Fault knobs fold into the identity only when a [fault] section
    // exists, so every pre-existing spec keeps its hash.
    for (const auto &[key, value] : fault)
        out << "fault." << key << '=' << value << '\n';
    return out.str();
}

std::string
ExperimentSpec::serialize() const
{
    std::ostringstream out;
    out << "name = " << name << '\n';
    out << "sweep = " << sweep << '\n';
    out << "seed = " << seed << '\n';
    out << "seed_mode = "
        << (seed_mode == SeedMode::Shared ? "shared" : "derived")
        << '\n';
    if (!constants.empty()) {
        out << "\n[params]\n";
        for (const auto &[key, value] : constants)
            out << key << " = " << value << '\n';
    }
    if (!axes.empty()) {
        out << "\n[axis]\n";
        for (const auto &axis : axes) {
            out << axis.name << " =";
            for (const auto &value : axis.values)
                out << ' ' << value;
            out << '\n';
        }
    }
    if (!fault.empty()) {
        out << "\n[fault]\n";
        for (const auto &[key, value] : fault)
            out << key << " = " << value << '\n';
    }
    if (!expect.empty()) {
        out << "\n[expect]\n";
        for (const auto &e : expect)
            out << e.text() << '\n';
    }
    return out.str();
}

std::string
ExperimentSpec::hash(double scale) const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(canonical(scale))));
    return buf;
}

std::vector<TrialContext>
ExperimentSpec::expand(double scale) const
{
    const std::size_t total = trialCount();
    std::vector<TrialContext> trials;
    trials.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        TrialContext ctx;
        ctx.sweep = sweep;
        ctx.index = index;
        ctx.seed = seed_mode == SeedMode::Shared
                       ? seed
                       : deriveTrialSeed(seed, index);
        ctx.scale = scale;
        // Mixed-radix decomposition of the index: the last axis is
        // the least-significant digit (varies fastest).
        std::size_t rest = index;
        std::vector<std::size_t> digit(axes.size(), 0);
        for (std::size_t a = axes.size(); a-- > 0;) {
            digit[a] = rest % axes[a].values.size();
            rest /= axes[a].values.size();
        }
        for (std::size_t a = 0; a < axes.size(); ++a) {
            ctx.params.emplace_back(axes[a].name,
                                    axes[a].values[digit[a]]);
        }
        for (const auto &constant : constants)
            ctx.params.push_back(constant);
        if (!fault.empty()) {
            // Fault knobs travel in the parameter list (prefixed) so
            // trial bodies can rebuild the FaultPlan, and a trial that
            // runs the plan gets a digest covering both the knobs and
            // the effective seed: a plan that pins its own `seed`
            // hashes the same across trials, one that defers to the
            // trial seed hashes per-trial.
            std::string text;
            std::uint64_t plan_seed = 0;
            for (const auto &[key, value] : fault) {
                ctx.params.emplace_back("fault." + key, value);
                text += "fault." + key + '=' + value + '\n';
                if (key == "seed")
                    plan_seed = std::strtoull(value.c_str(), nullptr, 0);
            }
            if (ctx.faulted()) {
                text += "effective_seed=" +
                        std::to_string(plan_seed ? plan_seed
                                                 : ctx.seed) +
                        '\n';
                char buf[17];
                std::snprintf(buf, sizeof(buf), "%016llx",
                              static_cast<unsigned long long>(
                                  iat::fnv1a64(text)));
                ctx.fault_hash = buf;
            }
        }
        trials.push_back(std::move(ctx));
    }
    return trials;
}

} // namespace iat::exp
