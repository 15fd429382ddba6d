/**
 * @file
 * Health/SLO watchdogs for service-mode runs: a small rule engine
 * evaluated periodically over the in-memory ring of recent stream
 * records (obs::stream::RingBufferExporter).
 *
 * Four rules cover the failure shapes an operator of the IAT daemon
 * cares about:
 *
 *  - telemetry_gap    -- the sampled stream stopped: the newest
 *                        Sample record is older than gap_factor x
 *                        the nominal sample interval. Catches a
 *                        wedged sampler hook or a stalled engine.
 *  - stuck_degraded   -- the daemon has reported degraded mode
 *                        (gauge "daemon.degraded" == 1) for N
 *                        consecutive samples; transient degradation
 *                        is expected under faults, a *stuck* daemon
 *                        is an incident.
 *  - slo_p99          -- a latency SLO breach: the newest value of
 *                        a configurable p99 column exceeds the
 *                        budget.
 *  - churn_storm      -- allocator thrash: the sum of a delta
 *                        column (default "daemon.way_reallocs")
 *                        over the last churn_window samples exceeds
 *                        a budget, i.e. the control loop is fighting
 *                        itself instead of converging.
 *
 * Every rule transition (clear->firing or firing->clear) increments
 * the "health.transitions" counter and publishes a Health record
 * into the stream, so soak runs can assert on the transition log and
 * live subscribers see incidents as they happen. The full status
 * serializes to one JSON object for the control socket's `health`
 * command.
 */

#ifndef IATSIM_OBS_HEALTH_HH
#define IATSIM_OBS_HEALTH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace iat::obs {

class Counter;
class MetricsRegistry;

namespace stream {
class RingBufferExporter;
class StreamDispatcher;
} // namespace stream

/** Rule thresholds; zero disables the corresponding rule. */
struct HealthConfig
{
    /** Nominal sample interval (simulated seconds); the clock the
     *  gap rule measures against. <= 0 disables the gap rule. */
    double sample_interval = 0.0;

    /** telemetry_gap fires when the newest sample is older than
     *  gap_factor * sample_interval. */
    double gap_factor = 4.0;

    /** stuck_degraded fires after this many consecutive samples
     *  with degraded_column >= 1; 0 disables. */
    std::size_t degraded_samples = 8;
    std::string degraded_column = "daemon.degraded";

    /** slo_p99 fires when the newest value of slo_column exceeds
     *  this budget; <= 0 disables. */
    double slo_p99 = 0.0;
    std::string slo_column = "svc.req_latency_cycles.p99";

    /** churn_storm fires when churn_column (delta semantics) summed
     *  over the last churn_window samples exceeds this; <= 0
     *  disables. */
    double churn_storm = 0.0;
    std::size_t churn_window = 16;
    std::string churn_column = "daemon.way_reallocs";
};

/** One rule's latest verdict. */
struct RuleStatus
{
    std::string name;
    bool enabled = false;
    bool firing = false;
    double value = 0.0;     ///< what the rule measured
    double threshold = 0.0; ///< what it measured against
};

/** The full verdict of one evaluation pass. */
struct HealthStatus
{
    double t_seconds = 0.0;
    bool ok = true; ///< no enabled rule firing
    std::vector<RuleStatus> rules;

    /** The rule named @p name; nullptr when unknown. */
    const RuleStatus *rule(const std::string &name) const;

    /** One-object JSON for the control socket's `health` reply. */
    std::string toJson(std::uint64_t transitions) const;
};

/** Evaluates the rules; see file comment. */
class HealthMonitor
{
  public:
    /**
     * @param cfg     Thresholds.
     * @param ring    Window of recent Header/Sample records to
     *                evaluate over (must outlive the monitor).
     * @param metrics Optional: registers "health.transitions".
     * @param publish Optional: Health records are published here on
     *                every rule transition.
     */
    HealthMonitor(HealthConfig cfg,
                  const stream::RingBufferExporter &ring,
                  MetricsRegistry *metrics = nullptr,
                  stream::StreamDispatcher *publish = nullptr);

    /** Run every rule against the ring as of @p now (simulated
     *  seconds); returns the updated status. */
    const HealthStatus &evaluate(double now);

    /** Latest verdict (empty until the first evaluate()). */
    const HealthStatus &status() const { return status_; }

    /** Rule transitions (either direction) since construction. */
    std::uint64_t transitions() const { return transitions_; }

    /** Evaluation passes run. */
    std::uint64_t evaluations() const { return evaluations_; }

    const HealthConfig &config() const { return cfg_; }

  private:
    void noteTransitions(double now);

    HealthConfig cfg_;
    const stream::RingBufferExporter &ring_;
    stream::StreamDispatcher *publish_ = nullptr;
    Counter *m_transitions_ = nullptr;

    HealthStatus status_;
    std::vector<bool> was_firing_; ///< aligned with status_.rules
    std::uint64_t transitions_ = 0;
    std::uint64_t evaluations_ = 0;
    double first_eval_seconds_ = -1.0;
};

/** Cluster-scope watchdog thresholds; zero disables a rule. The
 *  host_down threshold is passed to the monitor on its own: the
 *  cluster world hands it the scheduler's death threshold. */
struct ClusterHealthConfig
{
    /** partition_detected fires when >= partition_min_hosts hosts
     *  AND >= partition_fraction of the cluster are silent at once
     *  -- correlated silence is a fabric cut, not mass death.
     *  partition_min_hosts = 0 disables. */
    std::size_t partition_min_hosts = 2;
    double partition_fraction = 0.5;

    /** migration_storm fires when more than storm_budget migrations
     *  land within the last storm_window_epochs; 0 budget disables. */
    std::uint64_t storm_window_epochs = 32;
    std::uint64_t storm_budget = 4;
};

/**
 * Cluster-scope health watchdogs, evaluated by the ClusterWorld at
 * each epoch barrier over control-plane observables: per-host
 * heartbeat ages and the migration ledger. Three rules --
 * host_down, partition_detected, migration_storm -- reuse the
 * RuleStatus/HealthStatus machinery above, and every transition
 * publishes a Health record through the stream dispatcher exactly
 * like the per-host HealthMonitor, so `iatctl cluster` subscribers
 * see cluster incidents inline with telemetry.
 *
 * Determinism: evaluate() is called at the barrier with inputs that
 * are themselves bit-deterministic, so the transition log (and its
 * count, which folds into the world digest) is too.
 */
class ClusterHealthMonitor
{
  public:
    /** host_down fires while any host's heartbeat age reaches
     *  @p dead_after_epochs; 0 disables it and partition_detected. */
    ClusterHealthMonitor(ClusterHealthConfig cfg,
                         std::uint64_t dead_after_epochs);

    /** Install (or clear) the dispatcher transitions publish to;
     *  the World wires this after building its stream pipeline. */
    void setPublisher(stream::StreamDispatcher *publish)
    {
        publish_ = publish;
    }

    /**
     * Evaluate at epoch @p epoch (simulated time @p now) given each
     * host's heartbeat age and the cumulative migration count.
     */
    const HealthStatus &
    evaluate(std::uint64_t epoch, double now,
             const std::vector<std::uint64_t> &heartbeat_age,
             std::uint64_t total_migrations);

    const HealthStatus &status() const { return status_; }
    std::uint64_t transitions() const { return transitions_; }
    const ClusterHealthConfig &config() const { return cfg_; }

  private:
    void noteTransitions(double now);

    ClusterHealthConfig cfg_;
    std::uint64_t dead_after_epochs_;
    stream::StreamDispatcher *publish_ = nullptr;

    HealthStatus status_;
    std::vector<bool> was_firing_;
    std::uint64_t transitions_ = 0;
    /** (epoch, cumulative migrations) checkpoints for the storm
     *  window; pruned as the window slides. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> history_;
};

} // namespace iat::obs

#endif // IATSIM_OBS_HEALTH_HH
