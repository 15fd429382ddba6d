/**
 * @file
 * Record serialization, the resume reader, and the manifest writer.
 */

#include "exp/results.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "util/json.hh"

namespace iat::exp {

const char *
toString(TrialStatus status)
{
    switch (status) {
      case TrialStatus::Ok: return "ok";
      case TrialStatus::Failed: return "failed";
    }
    return "?";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
serializeRecord(const std::string &spec_hash, const TrialContext &ctx,
                const TrialOutcome &outcome)
{
    std::ostringstream out;
    out << "{\"spec_hash\":\"" << json::escape(spec_hash) << "\""
        << ",\"sweep\":\"" << json::escape(ctx.sweep) << "\""
        << ",\"trial\":" << ctx.index << ",\"seed\":" << ctx.seed;
    // Chaos trials carry their fault-plan digest; fault-free records
    // keep the exact pre-fault byte layout.
    if (!ctx.fault_hash.empty())
        out << ",\"fault_plan\":\"" << json::escape(ctx.fault_hash) << "\"";
    out << ",\"params\":{";
    for (std::size_t i = 0; i < ctx.params.size(); ++i) {
        out << (i ? "," : "") << "\"" << json::escape(ctx.params[i].first)
            << "\":\"" << json::escape(ctx.params[i].second) << "\"";
    }
    out << "},\"status\":\"" << toString(outcome.status) << "\"";
    if (outcome.status == TrialStatus::Failed)
        out << ",\"error\":\"" << json::escape(outcome.error) << "\"";
    out << ",\"metrics\":{";
    for (std::size_t i = 0; i < outcome.result.metrics.size(); ++i) {
        out << (i ? "," : "") << "\""
            << json::escape(outcome.result.metrics[i].first)
            << "\":" << jsonNumber(outcome.result.metrics[i].second);
    }
    out << "}}";
    return out.str();
}

std::vector<RecordInfo>
readRecords(const std::string &jsonl_text)
{
    std::vector<RecordInfo> records;
    std::istringstream in(jsonl_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto value = json::parse(line);
        if (!value || value->kind != json::Value::Kind::Object)
            continue; // truncated tail or foreign line
        const auto *hash = value->find("spec_hash");
        const auto *trial = value->find("trial");
        const auto *status = value->find("status");
        if (!hash || hash->kind != json::Value::Kind::String ||
            !trial || trial->kind != json::Value::Kind::Number ||
            !status || status->kind != json::Value::Kind::String) {
            continue;
        }
        RecordInfo info;
        info.spec_hash = hash->string;
        info.trial = static_cast<std::size_t>(trial->number);
        info.status = status->string == "ok" ? TrialStatus::Ok
                                             : TrialStatus::Failed;
        info.line = line;
        records.push_back(std::move(info));
    }
    return records;
}

std::vector<RecordInfo>
readRecordsFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream text;
    text << in.rdbuf();
    return readRecords(text.str());
}

bool
canonicalizeResults(const std::string &path)
{
    const auto records = readRecordsFile(path);
    // Last record per index wins: a rerun's record supersedes the
    // failed one it retried.
    std::map<std::size_t, const RecordInfo *> by_trial;
    for (const auto &record : records)
        by_trial[record.trial] = &record;
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (const auto &[index, record] : by_trial)
        out << record->line << '\n';
    return static_cast<bool>(out);
}

bool
appendLine(const std::string &path, const std::string &line)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    out << line << '\n';
    out.flush();
    return static_cast<bool>(out);
}

bool
ensureTrailingNewline(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return true; // nothing to heal
    in.seekg(0, std::ios::end);
    if (in.tellg() == std::streampos(0))
        return true;
    in.seekg(-1, std::ios::end);
    char last = '\0';
    in.get(last);
    if (last == '\n')
        return true;
    std::ofstream out(path, std::ios::app | std::ios::binary);
    if (!out)
        return false;
    out << '\n';
    return static_cast<bool>(out);
}

bool
writeManifest(const std::string &path, const ExperimentSpec &spec,
              double scale, const RunStats &stats)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\n";
    out << "  \"campaign\": \"" << json::escape(spec.name) << "\",\n";
    out << "  \"sweep\": \"" << json::escape(spec.sweep) << "\",\n";
    out << "  \"spec_hash\": \"" << spec.hash(scale) << "\",\n";
    out << "  \"seed\": " << spec.seed << ",\n";
    out << "  \"seed_mode\": \""
        << (spec.seed_mode == ExperimentSpec::SeedMode::Shared
                ? "shared"
                : "derived")
        << "\",\n";
    out << "  \"scale\": " << jsonNumber(scale) << ",\n";
    out << "  \"trials\": " << spec.trialCount() << ",\n";
    out << "  \"axes\": {";
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const auto &axis = spec.axes[a];
        out << (a ? ", " : "") << "\"" << json::escape(axis.name)
            << "\": [";
        for (std::size_t i = 0; i < axis.values.size(); ++i) {
            out << (i ? ", " : "") << "\"" << json::escape(axis.values[i])
                << "\"";
        }
        out << "]";
    }
    out << "},\n";
    out << "  \"params\": {";
    for (std::size_t i = 0; i < spec.constants.size(); ++i) {
        out << (i ? ", " : "") << "\""
            << json::escape(spec.constants[i].first) << "\": \""
            << json::escape(spec.constants[i].second) << "\"";
    }
    out << "},\n";
    out << "  \"run\": {\n";
    out << "    \"jobs\": " << stats.jobs << ",\n";
    out << "    \"trial_threads\": " << stats.trial_threads << ",\n";
    out << "    \"ran\": " << stats.ran << ",\n";
    out << "    \"ok\": " << stats.ok << ",\n";
    out << "    \"failed\": " << stats.failed << ",\n";
    out << "    \"skipped\": " << stats.skipped << ",\n";
    out << "    \"wall_s\": " << jsonNumber(stats.wall_seconds)
        << ",\n";
    out << "    \"trial_wall_s\": {";
    bool first = true;
    for (const auto &[trial, wall] : stats.trial_wall_seconds) {
        out << (first ? "" : ", ") << "\"" << trial
            << "\": " << jsonNumber(wall);
        first = false;
    }
    out << "}\n";
    out << "  }\n";
    out << "}\n";
    return static_cast<bool>(out);
}

} // namespace iat::exp
