/**
 * @file
 * IatDaemon implementation.
 */

#include "core/daemon.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace iat::core {

namespace {

constexpr std::size_t kNoTenant = std::numeric_limits<std::size_t>::max();

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
signedDelta(double prev, double cur)
{
    const double base = std::max(std::abs(prev), 1e-9);
    return (cur - prev) / base;
}

/** CLOS assigned to tenant @p t; CLOS 0 stays the default class. */
cache::ClosId
tenantClos(std::size_t t)
{
    return static_cast<cache::ClosId>(t + 1);
}

/** Names for IatDaemon::GateAction (private enum, passed as int). */
const char *
gateActionName(int action)
{
    switch (action) {
      case 0: return "sleep";
      case 1: return "run_fsm";
      case 2: return "shuffle_only";
      case 3: return "core_only_grow";
    }
    return "?";
}

std::string
orderString(const std::vector<std::size_t> &order)
{
    std::string s;
    for (const auto t : order) {
        if (!s.empty())
            s += ',';
        s += std::to_string(t);
    }
    return s;
}

} // namespace

IatDaemon::IatDaemon(rdt::PqosSystem &pqos, TenantRegistry &registry,
                     const IatParams &params, TenantModel model)
    : pqos_(pqos), registry_(registry), params_(params), model_(model),
      monitor_(pqos), fsm_(params),
      alloc_(pqos.l3NumWays(), pqos.ddioGetWays().count()),
      pending_grow_tenant_(kNoTenant)
{
}

IatDaemon::~IatDaemon()
{
    // Health gauges close over `this`; detach before the callbacks
    // can dangle (front ends destroy the daemon before telemetry).
    setTelemetry(nullptr);
}

void
IatDaemon::setTelemetry(obs::Telemetry *telemetry)
{
    if (telemetry_ && telemetry_ != telemetry) {
        auto &old = telemetry_->metrics();
        old.unbindGauge("daemon.degraded");
        old.unbindGauge("daemon.state");
    }
    telemetry_ = telemetry;
    if (!telemetry) {
        tracer_ = nullptr;
        m_ticks_ = m_stable_ticks_ = m_transitions_ = m_shuffles_ =
            m_way_reallocs_ = m_msr_reads_ = m_msr_writes_ =
                m_bad_samples_ = m_missed_polls_ = m_degraded_ =
                    m_write_retries_ = m_write_failures_ = nullptr;
        h_poll_ = h_transition_ = h_realloc_ = nullptr;
        return;
    }
    tracer_ = &telemetry->tracer();
    auto &m = telemetry->metrics();
    m_ticks_ = &m.counter("daemon.ticks");
    m_stable_ticks_ = &m.counter("daemon.stable_ticks");
    m_transitions_ = &m.counter("daemon.fsm_transitions");
    m_shuffles_ = &m.counter("daemon.shuffles");
    m_way_reallocs_ = &m.counter("daemon.way_reallocs");
    m_msr_reads_ = &m.counter("daemon.msr_reads");
    m_msr_writes_ = &m.counter("daemon.msr_writes");
    m_bad_samples_ = &m.counter("daemon.bad_samples");
    m_missed_polls_ = &m.counter("daemon.missed_polls");
    m_degraded_ = &m.counter("daemon.degraded_enters");
    m_write_retries_ = &m.counter("daemon.msr_write_retries");
    m_write_failures_ = &m.counter("daemon.msr_write_failures");
    h_poll_ = &m.histogram("daemon.poll_seconds");
    h_transition_ = &m.histogram("daemon.transition_seconds");
    h_realloc_ = &m.histogram("daemon.realloc_seconds");
    // Health gauges: levels the watchdog rules read back out of the
    // sampled stream. Unbound again on detach/destruction so churn
    // never leaves a dangling `this` behind.
    m.gauge("daemon.degraded",
            [this] { return degraded_ ? 1.0 : 0.0; });
    m.gauge("daemon.state", [this] {
        return static_cast<double>(fsm_.state());
    });
}

void
IatDaemon::traceTransition(IatState from, IatState to)
{
    if (from == to)
        return;
    if (m_transitions_)
        m_transitions_->inc();
    if (tracer_ && tracer_->enabled()) {
        tracer_->instant(trace_now_, "fsm", "fsm.transition",
                         {{"from", toString(from)},
                          {"to", toString(to)},
                          {"tick", ticks_}});
    }
}

template <typename Op>
bool
IatDaemon::programOp(Op &&op)
{
    if (op())
        return true;
    if (hardening_) {
        for (unsigned i = 0; i < params_.msr_write_retries; ++i) {
            ++write_retries_;
            if (m_write_retries_)
                m_write_retries_->inc();
            if (op())
                return true;
        }
    }
    ++write_failures_;
    if (m_write_failures_)
        m_write_failures_->inc();
    if (tracer_ && tracer_->enabled()) {
        tracer_->instant(trace_now_, "daemon", "daemon.wrmsr_failed",
                         {{"tick", ticks_}});
    }
    return false;
}

void
IatDaemon::setHardeningEnabled(bool on)
{
    hardening_ = on;
    monitor_.setHardeningEnabled(on);
}

void
IatDaemon::getTenantInfoAndAlloc()
{
    const auto &specs = registry_.tenants();
    IAT_ASSERT(specs.size() + 1 <= cache::SlicedLlc::numClos,
               "more tenants than classes of service");

    initial_ways_.clear();
    for (const auto &spec : specs)
        initial_ways_.push_back(spec.initial_ways);
    alloc_.setTenants(initial_ways_);
    alloc_.setDdioWays(pqos_.ddioGetWays().count());

    // Initial shuffle order from priorities alone (no samples yet):
    // PC and the software stack at the bottom, BE tenants on top.
    alloc_.setOrder(computeShuffleOrder(specs, {}, {}));

    bool setup_ok = true;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        for (const auto core : specs[t].cores) {
            setup_ok &= programOp(
                [&] { return pqos_.allocAssocSet(core,
                                                 tenantClos(t)); });
        }
    }

    programmed_masks_.assign(specs.size(), cache::WayMask{});
    programmed_ddio_ways_ = alloc_.ddioWays();
    applyMasks();

    setup_ok &= monitor_.attach(registry_);
    // A half-programmed setup (CLOS association or RMID binding lost
    // to a transient rejection) cannot be patched incrementally:
    // hardened, redo the whole Get Tenant Info next tick.
    if (hardening_ && !setup_ok)
        registry_.markDirty();
    fsm_.reset(IatState::LowKeep);
    have_ref_history_ = false;
    pending_grow_tenant_ = kNoTenant;
}

void
IatDaemon::enterDegraded()
{
    degraded_ = true;
    ++degraded_enters_;
    if (m_degraded_)
        m_degraded_->inc();
    // Static fallback: every tenant back to its initial allocation,
    // DDIO pinned at the floor. Known-safe, needs no samples -- but
    // setTenants() resets the shuffle order to identity, which could
    // park a performance-critical tenant in the DDIO-adjacent top
    // segment, so re-derive the priority-only order the same way Get
    // Tenant Info does.
    alloc_.setTenants(initial_ways_);
    alloc_.setOrder(computeShuffleOrder(registry_.tenants(), {}, {}));
    alloc_.setDdioWays(params_.ddio_ways_min);
    applyMasks();
    const IatState before = fsm_.state();
    fsm_.reset(IatState::LowKeep);
    traceTransition(before, fsm_.state());
    pending_grow_tenant_ = kNoTenant;
    if (tracer_ && tracer_->enabled()) {
        tracer_->instant(trace_now_, "daemon", "daemon.degraded",
                         {{"bad_streak", static_cast<std::uint64_t>(
                               bad_streak_)},
                          {"tick", ticks_}});
    }
}

void
IatDaemon::exitDegraded()
{
    degraded_ = false;
    ++degraded_exits_;
    if (tracer_ && tracer_->enabled()) {
        tracer_->instant(trace_now_, "daemon", "daemon.recovered",
                         {{"good_streak", static_cast<std::uint64_t>(
                               good_streak_)},
                          {"tick", ticks_}});
    }
    // Re-engage through a full Get Tenant Info: fresh monitor
    // baselines, FSM from LowKeep -- as if the daemon had restarted.
    registry_.markDirty();
}

void
IatDaemon::updateSampleHealth(const SystemSample &sample)
{
    if (sample.suspect) {
        ++bad_samples_;
        if (m_bad_samples_)
            m_bad_samples_->inc();
        ++bad_streak_;
        good_streak_ = 0;
        if (!degraded_ &&
            bad_streak_ >= params_.bad_samples_to_degrade)
            enterDegraded();
    } else {
        ++good_streak_;
        bad_streak_ = 0;
        if (degraded_ &&
            good_streak_ >= params_.good_samples_to_recover)
            exitDegraded();
    }
}

void
IatDaemon::applyMasks()
{
    const unsigned num_ways = alloc_.numWays();
    for (std::size_t t = 0; t < programmed_masks_.size(); ++t) {
        const auto mask = alloc_.tenantMask(t);
        if (mask == programmed_masks_[t])
            continue;
        const bool ok =
            programOp([&] { return pqos_.l3caSet(tenantClos(t),
                                                 mask); });
        // Hardened: a persistently rejected write leaves programmed_
        // stale, so the next applyMasks() retries it. Unhardened, the
        // daemon believes its own write -- the paper daemon never
        // checks pqos return codes -- and the divergence persists.
        if (!ok && hardening_)
            continue;
        programmed_masks_[t] = mask;
        if (m_way_reallocs_)
            m_way_reallocs_->inc();
        if (tracer_ && tracer_->enabled()) {
            tracer_->instant(trace_now_, "alloc", "alloc.way_mask",
                             {{"tenant", static_cast<std::uint64_t>(t)},
                              {"mask", mask.toString(num_ways)},
                              {"ways", mask.count()}});
        }
    }
    if (alloc_.ddioWays() != programmed_ddio_ways_) {
        const bool ok = programOp(
            [&] { return pqos_.ddioSetWays(alloc_.ddioMask()); });
        if (!ok && hardening_)
            return;
        programmed_ddio_ways_ = alloc_.ddioWays();
        if (m_way_reallocs_)
            m_way_reallocs_->inc();
        if (tracer_ && tracer_->enabled()) {
            tracer_->instant(
                trace_now_, "alloc", "alloc.ddio_ways",
                {{"mask", alloc_.ddioMask().toString(num_ways)},
                 {"ways", alloc_.ddioWays()}});
        }
    }
}

IatDaemon::GateAction
IatDaemon::stabilityGate(const SystemSample &sample)
{
    const double th = params_.threshold_stable;
    const bool ddio_changed =
        std::abs(sample.d_ddio_hits) > th ||
        std::abs(sample.d_ddio_misses) > th;

    const auto &specs = registry_.tenants();
    bool any_mem_change = false;
    bool any_change = ddio_changed;
    std::vector<bool> ipc_ch(specs.size()), mem_ch(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto &s = sample.tenants[t];
        ipc_ch[t] = std::abs(s.d_ipc) > th;
        mem_ch[t] =
            std::abs(s.d_refs) > th || std::abs(s.d_misses) > th;
        any_mem_change = any_mem_change || mem_ch[t];
        any_change = any_change || ipc_ch[t] || mem_ch[t];
    }

    if (!any_change)
        return GateAction::Sleep;

    // DDIO hit counts track throughput, so they move whenever the
    // pipeline speeds up or down; what signals *I/O pressure on the
    // LLC* is a changing, non-trivial miss (write-allocate) rate.
    const bool miss_pressure_changed =
        std::abs(sample.d_ddio_misses) > th &&
        sample.ddioMissesPerSecond() >
            params_.threshold_miss_low_per_s;

    if (!miss_pressure_changed) {
        // SS IV-B case 2: a tenant with no DDIO overlap shows an IPC
        // change backed by LLC ref/miss change while the I/O side
        // exerts no new pressure -- a pure core-side capacity story;
        // handle it without the FSM. The paper words this for
        // non-I/O tenants, but the same logic is what grows the
        // virtual switch in the Fig 9 experiment (its flow table
        // outgrows its ways without any DDIO miss pressure), so it
        // applies to every non-overlapping tenant.
        for (std::size_t t = 0; t < specs.size(); ++t) {
            if (!alloc_.tenantOverlapsDdio(t) && ipc_ch[t] &&
                mem_ch[t]) {
                gate_tenant_ = t;
                return GateAction::CoreOnlyGrow;
            }
        }
    }

    if (ddio_changed) {
        // SS IV-B case 3: a non-I/O tenant sharing ways with DDIO
        // degrades along with a DDIO change -- try shuffling first.
        for (std::size_t t = 0; t < specs.size(); ++t) {
            if (!specs[t].is_io && alloc_.tenantOverlapsDdio(t) &&
                ipc_ch[t] && mem_ch[t]) {
                return GateAction::ShuffleOnly;
            }
        }
        return GateAction::RunFsm;
    }

    // SS IV-B case 1: IPC moved but neither the cache nor the I/O
    // did -- attribute it to neither and sleep.
    if (!any_mem_change)
        return GateAction::Sleep;
    return GateAction::RunFsm;
}

std::size_t
IatDaemon::selectCoreDemandTenant(const SystemSample &sample)
{
    const auto &specs = registry_.tenants();
    if (model_ == TenantModel::Aggregation) {
        // The centralized software stack bottlenecks every attached
        // tenant; grow it first.
        for (std::size_t t = 0; t < specs.size(); ++t) {
            if (specs[t].priority == TenantPriority::SoftwareStack)
                return t;
        }
        return kNoTenant;
    }
    // Slicing: the I/O tenant with the largest increase of LLC miss
    // rate (percentage points) is the neediest.
    std::size_t best = kNoTenant;
    double best_delta = 0.0;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        if (!specs[t].is_io)
            continue;
        if (sample.tenants[t].d_miss_rate > best_delta) {
            best_delta = sample.tenants[t].d_miss_rate;
            best = t;
        }
    }
    return best;
}

bool
IatDaemon::reclaimOne(const SystemSample &sample)
{
    if (ddio_tuning_ &&
        alloc_.ddioWays() > params_.ddio_ways_min) {
        return alloc_.shrinkDdio(params_.ddio_ways_min);
    }
    if (!tenant_tuning_)
        return false;
    // Reclaim from the tenant with the smallest reference count that
    // still holds more than its initial allocation.
    std::size_t best = kNoTenant;
    std::uint64_t best_refs = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t t = 0; t < initial_ways_.size(); ++t) {
        if (alloc_.tenantWays(t) <= initial_ways_[t])
            continue;
        if (sample.tenants[t].llc_refs < best_refs) {
            best_refs = sample.tenants[t].llc_refs;
            best = t;
        }
    }
    return best != kNoTenant && alloc_.shrinkTenant(best);
}

void
IatDaemon::actOnState(IatState state, const SystemSample &sample)
{
    switch (state) {
      case IatState::IoDemand:
        if (ddio_tuning_) {
            unsigned step = 1;
            if (params_.adaptive_io_step) {
                // Miss-curve-guided increment (SS IV-D's UCP-style
                // alternative): step harder while misses are rising
                // steeply or the absolute rate is far above the
                // low-water mark.
                if (sample.d_ddio_misses > 0.5)
                    ++step;
                if (sample.ddioMissesPerSecond() >
                    10.0 * params_.threshold_miss_low_per_s) {
                    ++step;
                }
            }
            for (unsigned s = 0; s < step; ++s) {
                if (!alloc_.growDdio(params_.ddio_ways_max))
                    break;
            }
        }
        break;
      case IatState::CoreDemand:
        if (tenant_tuning_) {
            const std::size_t t = selectCoreDemandTenant(sample);
            if (t != kNoTenant)
                alloc_.growTenant(t);
        }
        break;
      case IatState::Reclaim:
        reclaimOne(sample);
        break;
      case IatState::LowKeep:
        if (ddio_tuning_ &&
            alloc_.ddioWays() > params_.ddio_ways_min) {
            alloc_.shrinkDdio(params_.ddio_ways_min);
        }
        break;
      case IatState::HighKeep:
        break;
    }
}

void
IatDaemon::maybeShuffle(const SystemSample &sample)
{
    const auto order = computeShuffleOrder(
        registry_.tenants(), sample.tenants, alloc_.order());
    if (order != alloc_.order()) {
        if (tracer_ && tracer_->enabled()) {
            tracer_->instant(trace_now_, "alloc", "alloc.shuffle",
                             {{"from", orderString(alloc_.order())},
                              {"to", orderString(order)}});
        }
        alloc_.setOrder(order);
        ++shuffles_;
        if (m_shuffles_)
            m_shuffles_->inc();
    }
}

void
IatDaemon::tick(double now)
{
    using Clock = std::chrono::steady_clock;
    ++ticks_;
    trace_now_ = now;
    if (m_ticks_)
        m_ticks_->inc();

    // Missed-poll watchdog: when the tick arrives late (dropped or
    // delayed polls), the counter deltas cover the real elapsed time,
    // so rates computed against the nominal interval would be inflated
    // by the gap ratio. Hardened, measure over the observed gap.
    // On-time ticks keep the nominal interval -- accumulating
    // (k+1)*i - k*i instead can differ in the last ulp and would
    // perturb fault-free runs.
    double dt = params_.interval_seconds;
    if (hardening_ && have_tick_time_) {
        const double gap = now - last_tick_time_;
        if (gap > 1.5 * params_.interval_seconds) {
            ++missed_polls_;
            if (m_missed_polls_)
                m_missed_polls_->inc();
            if (tracer_ && tracer_->enabled()) {
                tracer_->instant(now, "daemon", "daemon.missed_poll",
                                 {{"gap_seconds", gap},
                                  {"tick", ticks_}});
            }
            dt = gap;
        }
    }
    last_tick_time_ = now;
    have_tick_time_ = true;

    if (registry_.consumeDirty()) {
        const IatState before = fsm_.state();
        if (tracer_ && tracer_->enabled()) {
            tracer_->instant(
                now, "daemon", "daemon.tenant_info",
                {{"tenants",
                  static_cast<std::uint64_t>(registry_.size())}});
        }
        getTenantInfoAndAlloc();
        traceTransition(before, fsm_.state());
        return;
    }

    DaemonStepTiming timing;
    auto &bus = pqos_.bus();
    const std::uint64_t reads0 = bus.readCount();
    const std::uint64_t writes0 = bus.writeCount();
    const auto t0 = Clock::now();

    // Detect external DDIO reconfiguration (Fig 10 flips the way
    // count under the daemon at t=15s). Compare hardware against what
    // the daemon last successfully programmed, not the allocator's
    // intent: after a rejected write those differ, and adopting the
    // stale hardware value as an "external change" would silently
    // cancel the retry.
    const unsigned hw_ddio = pqos_.ddioGetWays().count();
    if (hw_ddio != programmed_ddio_ways_) {
        alloc_.setDdioWays(hw_ddio);
        programmed_ddio_ways_ = hw_ddio;
    }

    SystemSample sample = monitor_.poll(dt);

    if (hardening_) {
        updateSampleHealth(sample);
        if (degraded_) {
            // Poll-only tick: the static fallback allocation stands
            // until enough clean samples accumulate. exitDegraded()
            // re-runs Get Tenant Info via the dirty flag.
            const auto t_done = Clock::now();
            timing.poll_seconds = seconds(t0, t_done);
            timing.stable = true;
            timing.msr_reads = bus.readCount() - reads0;
            timing.msr_writes = bus.writeCount() - writes0;
            last_timing_ = timing;
            return;
        }
    }

    // System-wide LLC reference delta for the FSM.
    std::uint64_t total_refs = 0;
    for (const auto &t : sample.tenants)
        total_refs += t.llc_refs;
    double d_refs = 0.0;
    if (have_ref_history_) {
        d_refs = signedDelta(static_cast<double>(prev_total_refs_),
                             static_cast<double>(total_refs));
    }
    prev_total_refs_ = total_refs;
    have_ref_history_ = true;

    GateAction action = stabilityGate(sample);
    // Reclaim is a transient state: once pressure fades the deltas
    // go quiet, but the drain (one way per iteration, Fig 11) must
    // continue until the FSM leaves Reclaim via its bounds.
    if (action == GateAction::Sleep &&
        fsm_.state() == IatState::Reclaim) {
        action = GateAction::RunFsm;
    }
    // Case-2 growth continuation: one more way per iteration while
    // the tenant's miss rate has not recovered from the level that
    // triggered the growth (the "other mechanisms" of SS IV-B keep
    // allocating until the miss curve flattens).
    if (tenant_tuning_ && pending_grow_tenant_ != kNoTenant &&
        action != GateAction::CoreOnlyGrow) {
        const auto &ts = sample.tenants[pending_grow_tenant_];
        if (ts.missRate() > 0.5 * pending_grow_missrate_ &&
            alloc_.growTenant(pending_grow_tenant_)) {
            applyMasks();
        } else {
            pending_grow_tenant_ = kNoTenant;
        }
    }
    const auto t1 = Clock::now();
    timing.poll_seconds = seconds(t0, t1);

    auto finish = [&](bool stable, Clock::time_point t_trans,
                      Clock::time_point t_done) {
        timing.stable = stable;
        timing.transition_seconds = seconds(t1, t_trans);
        timing.realloc_seconds = seconds(t_trans, t_done);
        timing.msr_reads = bus.readCount() - reads0;
        timing.msr_writes = bus.writeCount() - writes0;
        last_timing_ = timing;
        if (stable)
            ++stable_ticks_;
        if (m_ticks_) { // one registration implies all of them
            if (stable)
                m_stable_ticks_->inc();
            m_msr_reads_->inc(timing.msr_reads);
            m_msr_writes_->inc(timing.msr_writes);
            h_poll_->record(timing.poll_seconds);
            h_transition_->record(timing.transition_seconds);
            h_realloc_->record(timing.realloc_seconds);
        }
        if (tracer_ && tracer_->enabled()) {
            // DDIO pressure tracks render as Perfetto counter rows.
            tracer_->counter(
                now, "ddio", "ddio.pressure",
                {{"hits_per_s",
                  sample.interval_seconds > 0.0
                      ? sample.ddio_hits / sample.interval_seconds
                      : 0.0},
                 {"misses_per_s", sample.ddioMissesPerSecond()}});
            tracer_->counter(
                now, "ddio", "ddio.ways",
                {{"ways", alloc_.ddioWays()}});
        }
    };

    if (tracer_ && tracer_->enabled()) {
        tracer_->instant(
            now, "daemon", "daemon.gate",
            {{"action", gateActionName(static_cast<int>(action))},
             {"state", toString(fsm_.state())}});
    }

    switch (action) {
      case GateAction::Sleep: {
        const auto t_done = Clock::now();
        finish(true, t_done, t_done);
        return;
      }
      case GateAction::CoreOnlyGrow: {
        const auto t_trans = Clock::now();
        const auto &ts = sample.tenants[gate_tenant_];
        // Grow on a rising miss rate, or keep growing while an
        // in-flight growth has not yet halved the miss rate that
        // triggered it (warming the new ways takes intervals).
        const bool continuing =
            pending_grow_tenant_ == gate_tenant_ &&
            ts.missRate() > 0.5 * pending_grow_missrate_;
        if (tenant_tuning_ &&
            (ts.d_miss_rate > 0.0 || continuing) &&
            alloc_.growTenant(gate_tenant_)) {
            if (pending_grow_tenant_ != gate_tenant_) {
                pending_grow_tenant_ = gate_tenant_;
                pending_grow_missrate_ = ts.missRate();
            }
        } else if (pending_grow_tenant_ == gate_tenant_) {
            pending_grow_tenant_ = kNoTenant;
        }
        applyMasks();
        finish(false, t_trans, Clock::now());
        return;
      }
      case GateAction::ShuffleOnly: {
        const auto t_trans = Clock::now();
        maybeShuffle(sample);
        applyMasks();
        finish(false, t_trans, Clock::now());
        return;
      }
      case GateAction::RunFsm:
        break;
    }

    const IatState state_before = fsm_.state();
    const FsmInputs inputs{
        sample.ddioMissesPerSecond(),
        sample.d_ddio_misses,
        sample.d_ddio_hits,
        d_refs,
        alloc_.ddioWays(),
    };
    const IatState state = fsm_.advance(inputs);
    const auto t_trans = Clock::now();

    actOnState(state, sample);
    fsm_.applyBounds(alloc_.ddioWays());
    // One event spans advance + bound adjustment: what an external
    // observer of the daemon would call "the" transition this tick.
    traceTransition(state_before, fsm_.state());
    maybeShuffle(sample);
    applyMasks();
    finish(false, t_trans, Clock::now());
}

} // namespace iat::core
