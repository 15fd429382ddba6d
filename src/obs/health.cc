/**
 * @file
 * HealthMonitor implementation.
 */

#include "obs/health.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "obs/metrics.hh"
#include "obs/stream/ring.hh"
#include "util/json.hh"

namespace iat::obs {

namespace {

/** Value of column @p name in a Sample record; NaN when absent. */
double
sampleValue(const stream::StreamRecord &rec, const std::string &name)
{
    if (!rec.columns)
        return std::nan("");
    for (std::size_t i = 0; i < rec.columns->size(); ++i)
        if ((*rec.columns)[i] == name && i < rec.values.size())
            return rec.values[i];
    return std::nan("");
}

std::string
ruleJson(const RuleStatus &rule)
{
    std::string out = "{\"name\":\"";
    out += json::escape(rule.name);
    out += "\",\"enabled\":";
    out += rule.enabled ? "true" : "false";
    out += ",\"firing\":";
    out += rule.firing ? "true" : "false";
    out += ",\"value\":";
    out += json::number(rule.value);
    out += ",\"threshold\":";
    out += json::number(rule.threshold);
    out += '}';
    return out;
}

} // namespace

const RuleStatus *
HealthStatus::rule(const std::string &name) const
{
    for (const auto &r : rules)
        if (r.name == name)
            return &r;
    return nullptr;
}

std::string
HealthStatus::toJson(std::uint64_t transitions) const
{
    std::string out = "{\"t_seconds\":";
    out += json::number(t_seconds);
    out += ",\"ok\":";
    out += ok ? "true" : "false";
    out += ",\"transitions\":";
    out += json::number(static_cast<double>(transitions));
    out += ",\"rules\":[";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (i)
            out += ',';
        out += ruleJson(rules[i]);
    }
    out += "]}";
    return out;
}

HealthMonitor::HealthMonitor(HealthConfig cfg,
                             const stream::RingBufferExporter &ring,
                             MetricsRegistry *metrics,
                             stream::StreamDispatcher *publish)
    : cfg_(std::move(cfg)), ring_(ring), publish_(publish)
{
    if (metrics)
        m_transitions_ = &metrics->counter("health.transitions");
    status_.rules.resize(4);
    status_.rules[0].name = "telemetry_gap";
    status_.rules[1].name = "stuck_degraded";
    status_.rules[2].name = "slo_p99";
    status_.rules[3].name = "churn_storm";
    was_firing_.assign(status_.rules.size(), false);
}

const HealthStatus &
HealthMonitor::evaluate(double now)
{
    if (first_eval_seconds_ < 0.0)
        first_eval_seconds_ = now;
    status_.t_seconds = now;

    // telemetry_gap: age of the newest sample (or of the run start
    // when nothing was ever sampled) against the nominal interval.
    {
        RuleStatus &rule = status_.rules[0];
        rule.enabled = cfg_.sample_interval > 0.0;
        rule.threshold = cfg_.gap_factor * cfg_.sample_interval;
        const auto *latest =
            ring_.latestOf(stream::StreamKind::Sample);
        rule.value = latest ? now - latest->t_seconds
                            : now - first_eval_seconds_;
        rule.firing = rule.enabled && rule.value > rule.threshold;
    }

    // stuck_degraded: consecutive newest-first samples at >= 1.
    {
        RuleStatus &rule = status_.rules[1];
        rule.enabled = cfg_.degraded_samples > 0;
        rule.threshold = static_cast<double>(cfg_.degraded_samples);
        std::size_t streak = 0;
        ring_.visitRecent(
            stream::StreamKind::Sample, cfg_.degraded_samples,
            [&](const stream::StreamRecord &rec) {
                const double v =
                    sampleValue(rec, cfg_.degraded_column);
                if (std::isnan(v) || v < 1.0)
                    return false;
                ++streak;
                return true;
            });
        rule.value = static_cast<double>(streak);
        rule.firing =
            rule.enabled && streak >= cfg_.degraded_samples;
    }

    // slo_p99: newest value of the SLO column against the budget.
    {
        RuleStatus &rule = status_.rules[2];
        rule.enabled = cfg_.slo_p99 > 0.0;
        rule.threshold = cfg_.slo_p99;
        rule.value = 0.0;
        if (const auto *latest =
                ring_.latestOf(stream::StreamKind::Sample)) {
            const double v = sampleValue(*latest, cfg_.slo_column);
            if (!std::isnan(v))
                rule.value = v;
        }
        rule.firing = rule.enabled && rule.value > rule.threshold;
    }

    // churn_storm: delta column summed over the window.
    {
        RuleStatus &rule = status_.rules[3];
        rule.enabled = cfg_.churn_storm > 0.0;
        rule.threshold = cfg_.churn_storm;
        double sum = 0.0;
        ring_.visitRecent(stream::StreamKind::Sample,
                          cfg_.churn_window,
                          [&](const stream::StreamRecord &rec) {
                              const double v = sampleValue(
                                  rec, cfg_.churn_column);
                              if (!std::isnan(v))
                                  sum += v;
                              return true;
                          });
        rule.value = sum;
        rule.firing = rule.enabled && sum > rule.threshold;
    }

    status_.ok = true;
    for (const auto &rule : status_.rules)
        if (rule.enabled && rule.firing)
            status_.ok = false;

    noteTransitions(now);
    return status_;
}

void
HealthMonitor::noteTransitions(double now)
{
    for (std::size_t i = 0; i < status_.rules.size(); ++i) {
        const RuleStatus &rule = status_.rules[i];
        if (rule.firing == static_cast<bool>(was_firing_[i]))
            continue;
        was_firing_[i] = rule.firing;
        ++transitions_;
        if (m_transitions_)
            m_transitions_->inc();
        if (!publish_)
            continue;
        stream::StreamRecord rec;
        rec.kind = stream::StreamKind::Health;
        rec.t_seconds = now;
        rec.json = "{\"kind\":\"health\",\"t_seconds\":";
        rec.json += json::number(now);
        rec.json += ",\"rule\":";
        rec.json += ruleJson(rule);
        rec.json += '}';
        publish_->publish(rec);
    }
}

ClusterHealthMonitor::ClusterHealthMonitor(
    ClusterHealthConfig cfg, std::uint64_t dead_after_epochs)
    : cfg_(cfg), dead_after_epochs_(dead_after_epochs)
{
    status_.rules.resize(3);
    status_.rules[0].name = "host_down";
    status_.rules[1].name = "partition_detected";
    status_.rules[2].name = "migration_storm";
    was_firing_.assign(status_.rules.size(), false);
}

const HealthStatus &
ClusterHealthMonitor::evaluate(
    std::uint64_t epoch, double now,
    const std::vector<std::uint64_t> &heartbeat_age,
    std::uint64_t total_migrations)
{
    status_.t_seconds = now;
    const std::size_t num_hosts = heartbeat_age.size();

    std::size_t silent = 0;
    std::uint64_t worst_age = 0;
    for (const std::uint64_t age : heartbeat_age) {
        if (dead_after_epochs_ > 0 && age >= dead_after_epochs_)
            ++silent;
        worst_age = std::max(worst_age, age);
    }

    // host_down: at least one host has gone silent past the death
    // threshold. Value reports the worst heartbeat age so operators
    // see how stale the silent host is.
    {
        RuleStatus &rule = status_.rules[0];
        rule.enabled = dead_after_epochs_ > 0;
        rule.threshold = static_cast<double>(dead_after_epochs_);
        rule.value = static_cast<double>(worst_age);
        rule.firing = rule.enabled && silent > 0;
    }

    // partition_detected: correlated silence across a meaningful
    // fraction of the cluster.
    {
        RuleStatus &rule = status_.rules[1];
        rule.enabled = cfg_.partition_min_hosts > 0 &&
                       dead_after_epochs_ > 0;
        rule.threshold =
            static_cast<double>(cfg_.partition_min_hosts);
        rule.value = static_cast<double>(silent);
        rule.firing =
            rule.enabled && silent >= cfg_.partition_min_hosts &&
            static_cast<double>(silent) >=
                cfg_.partition_fraction *
                    static_cast<double>(num_hosts);
    }

    // migration_storm: migrations landed inside the sliding window.
    {
        RuleStatus &rule = status_.rules[2];
        rule.enabled = cfg_.storm_budget > 0;
        rule.threshold = static_cast<double>(cfg_.storm_budget);
        history_.emplace_back(epoch, total_migrations);
        const std::uint64_t horizon =
            epoch >= cfg_.storm_window_epochs
                ? epoch - cfg_.storm_window_epochs
                : 0;
        std::size_t keep = 0;
        while (keep + 1 < history_.size() &&
               history_[keep].first < horizon)
            ++keep;
        if (keep > 0)
            history_.erase(history_.begin(),
                           history_.begin() +
                               static_cast<std::ptrdiff_t>(keep));
        const std::uint64_t in_window =
            total_migrations - history_.front().second;
        rule.value = static_cast<double>(in_window);
        rule.firing = rule.enabled && in_window > cfg_.storm_budget;
    }

    status_.ok = true;
    for (const auto &rule : status_.rules)
        if (rule.enabled && rule.firing)
            status_.ok = false;

    noteTransitions();
    return status_;
}

void
ClusterHealthMonitor::noteTransitions()
{
    for (std::size_t i = 0; i < status_.rules.size(); ++i) {
        const bool firing = status_.rules[i].firing;
        if (firing == static_cast<bool>(was_firing_[i]))
            continue;
        was_firing_[i] = firing;
        ++transitions_;
    }
}

} // namespace iat::obs
