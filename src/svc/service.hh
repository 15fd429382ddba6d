/**
 * @file
 * Service mode: the open-ended live world behind `iatsvc`.
 *
 * A Service owns one self-contained simulation -- platform, engine,
 * tenant registry, the IAT daemon, synthetic traffic, optional fault
 * injection and shadow-mode checking -- plus the full streaming
 * telemetry pipeline (JSONL file sink, live socket publisher, ring
 * buffer) and the health watchdogs evaluating over it. Instead of
 * run-to-completion, the engine runs open-ended; simulated time is
 * decoupled from wall time (free-running by default, optionally
 * throttled to a sim-seconds-per-wall-second ratio) and the world is
 * steered while it runs through newline-delimited JSON commands on a
 * Unix control socket:
 *
 *   {"cmd":"stats"}                          world + pipeline counters
 *   {"cmd":"health"}                         watchdog verdicts
 *   {"cmd":"attach-tenant","name":"x",
 *    "cores":[4,5],"ways":2,"prio":"be",
 *    "io":false}                             add a tenant live
 *   {"cmd":"detach-tenant","name":"x"}       remove one live
 *   {"cmd":"set-traffic","rate":2.5}         dial the load
 *   {"cmd":"toggle-faults"} / {...,"on":true} suspend/resume faults
 *   {"cmd":"snapshot"}                       flush sinks + files
 *   {"cmd":"stop"}                           clean shutdown
 *
 * Every reply is one JSON object with an "ok" field; malformed input
 * gets {"ok":false,"error":...} instead of a dropped connection.
 * handleCommand() is public so tests and the soak harness can drive
 * the same surface in-process, without a socket.
 */

#ifndef IATSIM_SVC_SERVICE_HH
#define IATSIM_SVC_SERVICE_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "check/diff.hh"
#include "core/daemon.hh"
#include "core/policy.hh"
#include "core/tenant.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "obs/health.hh"
#include "obs/stream/exporter.hh"
#include "obs/stream/jsonl.hh"
#include "obs/stream/ring.hh"
#include "obs/stream/socket_pub.hh"
#include "obs/telemetry.hh"
#include "sim/engine.hh"
#include "sim/telemetry.hh"
#include "svc/control.hh"
#include "svc/traffic.hh"
#include "util/cli.hh"
#include "util/json.hh"

namespace iat::svc {

/** Everything a Service needs, parsed once. */
struct ServiceConfig
{
    std::string control_path;  ///< "" = no control socket
    std::string stream_path;   ///< JSONL sink; "" = off
    std::string publish_path;  ///< live pub socket; "" = off
    std::string trace_path;    ///< snapshot trace file; "" = off
    std::string metrics_path;  ///< snapshot time series; "" = off

    double interval_seconds = 5e-3; ///< daemon poll + sample period
    /** Sim seconds advanced per wall second; 0 = free-running. */
    double realtime_ratio = 0.0;
    std::size_t ring_capacity = 4096;
    std::size_t sampler_row_limit = 4096;
    std::size_t tracer_event_limit = 16384;

    bool check_mode = false; ///< shadow oracle + invariant checks
    bool hardening = true;
    /** Controller driving the world (--policy); the daemon-specific
     *  surfaces (hardening counters, degraded flag in stats) apply
     *  only to the IAT kinds. */
    core::PolicyKind policy = core::PolicyKind::Iat;
    double traffic_rate = 1.0;
    /** Affiliation-file records; "" = a built-in 3-tenant mix. */
    std::string tenants_text;

    fault::FaultPlan fault_plan; ///< armed when any()
    core::IatParams params;
    sim::PlatformConfig platform;
    obs::HealthConfig health; ///< sample_interval defaulted

    /** Read the iatsvc/soak flag family (see iatsvc usage). */
    static ServiceConfig fromCli(const CliArgs &args);
};

/** One live world + its control surface; see file comment. */
class Service
{
  public:
    explicit Service(ServiceConfig cfg);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Execute one command line; returns the reply line. This is
     *  exactly what the control socket dispatches into. */
    std::string handleCommand(const std::string &line);

    /** Run open-ended until a `stop` command or requestStop(). */
    void run();

    /** Advance @p sim_seconds (in-process harnesses; the control
     *  socket and throttle hooks run as usual). */
    void runFor(double sim_seconds);

    /** Ask the run loop to exit; safe from a signal handler. */
    void requestStop() { stop_.store(true); }
    bool stopRequested() const { return stop_.load(); }

    /// @name Introspection (tests, soak harness)
    /// @{
    sim::Platform &platform() { return platform_; }
    sim::Engine &engine() { return engine_; }
    core::TenantRegistry &registry() { return registry_; }
    core::Policy &policy() { return *policy_; }
    /** The IAT daemon behind policy(); null for non-daemon kinds. */
    core::IatDaemon *daemon() { return daemon_; }
    obs::Telemetry &telemetry() { return *telemetry_; }
    obs::stream::StreamDispatcher &stream() { return dispatcher_; }
    obs::stream::RingBufferExporter &ring() { return *ring_; }
    obs::HealthMonitor &health() { return *health_; }
    SyntheticTraffic &traffic() { return *traffic_; }
    fault::FaultInjector *injector() { return injector_.get(); }
    ControlServer *control() { return control_.get(); }
    const check::DiffHarness *diff() const { return diff_.get(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    const ServiceConfig &config() const { return cfg_; }
    /// @}

  private:
    void buildStream();
    void buildWorld();
    void installHooks();
    void afterPolicyTick(double now);
    void recordViolation(double now, const std::string &what);
    void publishLifecycle(double now, const char *event,
                          const std::string &detail = "");
    void throttle(double now);

    /// @name Command handlers (one reply line each)
    /// @{
    std::string cmdStats();
    std::string cmdHealth();
    std::string cmdAttachTenant(const json::Value &cmd);
    std::string cmdDetachTenant(const json::Value &cmd);
    std::string cmdSetTraffic(const json::Value &cmd);
    std::string cmdToggleFaults(const json::Value &cmd);
    std::string cmdSnapshot();
    std::string cmdStop();
    /// @}

    ServiceConfig cfg_;
    sim::Platform platform_;
    sim::Engine engine_;

    std::unique_ptr<obs::Telemetry> telemetry_;
    obs::stream::StreamDispatcher dispatcher_;
    std::unique_ptr<obs::stream::RingBufferExporter> ring_;
    std::unique_ptr<obs::stream::JsonlFileExporter> jsonl_;
    std::unique_ptr<obs::stream::SocketPublisher> pub_;

    core::TenantRegistry registry_;
    std::unique_ptr<core::Policy> policy_;
    /** Borrowed from policy_ when it wraps the daemon; else null. */
    core::IatDaemon *daemon_ = nullptr;
    std::unique_ptr<SyntheticTraffic> traffic_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<sim::PlatformTelemetry> platform_telemetry_;
    std::unique_ptr<obs::HealthMonitor> health_;
    std::unique_ptr<check::DiffHarness> diff_;
    std::unique_ptr<ControlServer> control_;

    obs::Counter *m_commands_ = nullptr;
    obs::Counter *m_violations_ = nullptr;

    std::vector<std::string> violations_;
    bool diff_reported_ = false;

    std::atomic<bool> stop_{false};
    std::chrono::steady_clock::time_point wall_start_;
    double sim_start_ = 0.0;
};

} // namespace iat::svc

#endif // IATSIM_SVC_SERVICE_HH
