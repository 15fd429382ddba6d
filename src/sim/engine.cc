/**
 * @file
 * Engine implementation.
 */

#include "sim/engine.hh"

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace iat::sim {

void
Engine::attachTelemetry(obs::Telemetry *telemetry)
{
    if (!telemetry) {
        quanta_counter_ = hooks_counter_ = nullptr;
        return;
    }
    quanta_counter_ = &telemetry->metrics().counter("engine.quanta");
    hooks_counter_ =
        &telemetry->metrics().counter("engine.hooks_fired");
}

void
Engine::add(Runnable *runnable)
{
    IAT_ASSERT(runnable != nullptr, "null runnable");
    runnables_.push_back(runnable);
}

void
Engine::addPeriodic(double interval, std::function<void(double)> fn,
                    double phase)
{
    IAT_ASSERT(interval > 0.0, "periodic hook needs interval > 0");
    const double first =
        platform_.now() + (phase >= 0.0 ? phase : interval);
    hooks_.push(
        Hook{first, interval, first, 0, hook_seq_++, std::move(fn)});
}

void
Engine::at(double when, std::function<void(double)> fn)
{
    hooks_.push(Hook{when, 0.0, when, 0, hook_seq_++, std::move(fn)});
}

void
Engine::addRunEndHook(std::function<void(double)> fn)
{
    IAT_ASSERT(fn != nullptr, "null run-end hook");
    run_end_hooks_.push_back(std::move(fn));
}

void
Engine::fireDueHooks(double horizon)
{
    while (!hooks_.empty() && hooks_.top().next <= horizon) {
        Hook hook = hooks_.top();
        hooks_.pop();
        // The hook observes its *scheduled* time: a sampler whose
        // interval is not a quantum multiple must not record the
        // quantum boundary it happens to fire in.
        hook.fn(hook.next);
        if (hooks_counter_)
            hooks_counter_->inc();
        if (hook.interval > 0.0) {
            // Drift-free reschedule: absolute arithmetic from the
            // first firing, not repeated accumulation.
            ++hook.fires;
            hook.next = hook.first +
                        static_cast<double>(hook.fires) * hook.interval;
            hooks_.push(std::move(hook));
        }
    }
}

void
Engine::stepQuantum()
{
    const double dt = platform_.config().quantum_seconds;
    const double t0 = platform_.now();
    fireDueHooks(t0 + dt * 0.5);
    for (auto *r : runnables_)
        r->runQuantum(t0, dt);
    platform_.advanceQuantum(dt);
    if (quanta_counter_)
        quanta_counter_->inc();
}

void
Engine::run(double seconds)
{
    IAT_ASSERT(seconds > 0.0, "run() needs positive duration");
    const double dt = platform_.config().quantum_seconds;
    const double end = platform_.now() + seconds;
    stop_requested_ = false;
    // Half-quantum slack so accumulated floating-point error never
    // costs or gains a whole quantum.
    while (!stop_requested_ && platform_.now() < end - dt * 0.5)
        stepQuantum();
    // The loop covers hooks due up to end - dt/2. One-shot hooks due
    // in (end - dt/2, end] -- notably at(when == end) -- would
    // otherwise be lost to callers that never run() again; drain them
    // now. A stopped run ends at its clock, so it drains only what is
    // due by then: later hooks belong to the next run().
    drainOneShots(stop_requested_ ? platform_.now() : end);
    for (auto &fn : run_end_hooks_)
        fn(platform_.now());
}

void
Engine::runOpenEnded()
{
    stop_requested_ = false;
    while (!stop_requested_)
        stepQuantum();
    quiesce();
}

void
Engine::quiesce()
{
    drainOneShots(platform_.now());
}

void
Engine::drainOneShots(double horizon)
{
    // `when == horizon` up to fp noise. Periodic hooks due by the
    // horizon keep belonging to the next window (their next tick is
    // its first event), so they go back unfired.
    const double edge =
        horizon + platform_.config().quantum_seconds * 1e-6;
    std::vector<Hook> periodic;
    while (!hooks_.empty() && hooks_.top().next <= edge) {
        Hook hook = hooks_.top();
        hooks_.pop();
        if (hook.interval > 0.0) {
            periodic.push_back(std::move(hook));
            continue;
        }
        hook.fn(hook.next);
        if (hooks_counter_)
            hooks_counter_->inc();
    }
    for (auto &hook : periodic)
        hooks_.push(std::move(hook));
}

} // namespace iat::sim
