/**
 * @file
 * The simulation engine: fixed-quantum co-simulation with periodic
 * and one-shot hooks.
 *
 * Time advances in quanta of PlatformConfig::quantum_seconds. Within
 * a quantum each registered Runnable simulates its own activity on a
 * private micro-timeline (the net pipeline interleaves producers and
 * consumers per packet); across quanta the engine keeps everyone's
 * clock aligned, fires hooks (the IAT daemon tick, counter samplers,
 * phase changes) and rolls the DRAM utilization window.
 */

#ifndef IATSIM_SIM_ENGINE_HH
#define IATSIM_SIM_ENGINE_HH

#include <functional>
#include <queue>
#include <vector>

#include "sim/platform.hh"

namespace iat::obs {
class Counter;
class Telemetry;
} // namespace iat::obs

namespace iat::sim {

/** Anything that consumes simulated time quantum by quantum. */
class Runnable
{
  public:
    virtual ~Runnable() = default;

    /** Simulate activity in [t_start, t_start + dt). */
    virtual void runQuantum(double t_start, double dt) = 0;
};

/** Quantum-stepping engine; see file comment. */
class Engine
{
  public:
    explicit Engine(Platform &platform) : platform_(platform) {}

    /** Register a component; not owned. Order of addition = order of
     *  execution within a quantum (producers before consumers). */
    void add(Runnable *runnable);

    /**
     * Call @p fn every @p interval simulated seconds, first at
     * @p phase (defaults to one interval in).
     */
    void addPeriodic(double interval, std::function<void(double)> fn,
                     double phase = -1.0);

    /** Call @p fn once when simulated time reaches @p when. */
    void at(double when, std::function<void(double)> fn);

    /**
     * Call @p fn at the end of every run() window, after runnables
     * and due hooks, with the window's end time. When the engine is
     * driven in fixed epochs (cluster mode runs each shard's engine
     * run(epoch) by run(epoch)), this is the epoch-edge hook: shard
     * telemetry refresh and outbox collection live here so they run
     * on the shard's own thread, inside its quantum stream, never
     * concurrently with another epoch.
     */
    void addRunEndHook(std::function<void(double)> fn);

    /**
     * Run until platform time advances by @p seconds.
     *
     * Hooks receive their *scheduled* time, not the quantum start
     * they happen to fire in, so samplers with intervals that are
     * not quantum multiples record unskewed timestamps. One-shot
     * hooks due at or before the end of the run (including exactly
     * at the end) fire before run() returns; a periodic hook due
     * exactly at the end fires at the start of the next run(). A run
     * stopped early by requestStop() ends at its clock and drains
     * only the one-shot hooks due by then.
     */
    void run(double seconds);

    /**
     * Run quantum by quantum until requestStop() -- the service
     * mode's open-ended loop, where wall-clock code (control socket
     * polling, throttling) lives in periodic hooks. Unlike run()
     * there is no end time: the loop exits only through
     * requestStop(), then quiesces (drains one-shot hooks already
     * due) so a stopped world is in the same clean state a finished
     * run() leaves behind.
     */
    void runOpenEnded();

    /** Ask the open-ended loop (or the current run()) to exit at the
     *  next quantum boundary. Safe to call from a hook. */
    void requestStop() { stop_requested_ = true; }
    bool stopRequested() const { return stop_requested_; }

    /** Fire one-shot hooks due at or before now (the drain a
     *  stopped run ends with, callable on its own). */
    void quiesce();

    /**
     * Export engine activity (engine.quanta, engine.hooks_fired
     * counters) into @p telemetry's registry; nullptr detaches. The
     * run loop pays one pointer test per quantum when detached.
     */
    void attachTelemetry(obs::Telemetry *telemetry);

    Platform &platform() { return platform_; }

  private:
    /** Fire every queued hook scheduled at or before @p horizon. */
    void fireDueHooks(double horizon);

    /** Fire the one-shot hooks due by @p horizon; periodic ones stay
     *  queued. The end-of-window drain of run(), runOpenEnded() and
     *  quiesce(). */
    void drainOneShots(double horizon);

    /** Advance one quantum: due hooks, runnables, platform clock. */
    void stepQuantum();

    struct Hook
    {
        double next;
        double interval; // <= 0 for one-shot
        /** First scheduled time; periodic reschedules compute
         *  next = first + fires * interval so floating-point error
         *  does not accumulate across thousands of periods. */
        double first;
        std::uint64_t fires;
        std::uint64_t seq;
        std::function<void(double)> fn;

        bool
        operator>(const Hook &other) const
        {
            return next != other.next ? next > other.next
                                      : seq > other.seq;
        }
    };

    Platform &platform_;
    std::vector<Runnable *> runnables_;
    std::priority_queue<Hook, std::vector<Hook>, std::greater<>> hooks_;
    std::uint64_t hook_seq_ = 0;
    std::vector<std::function<void(double)>> run_end_hooks_;

    obs::Counter *quanta_counter_ = nullptr;
    obs::Counter *hooks_counter_ = nullptr;
    bool stop_requested_ = false;
};

} // namespace iat::sim

#endif // IATSIM_SIM_ENGINE_HH
