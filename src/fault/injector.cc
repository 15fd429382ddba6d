/**
 * @file
 * FaultInjector implementation.
 */

#include "fault/injector.hh"

#include <cmath>

#include "core/policy.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace iat::fault {

namespace {

constexpr std::uint64_t kMask48 = (std::uint64_t{1} << 48) - 1;

/** Seed when the plan never resolved one (tests, ad-hoc CLI runs). */
constexpr std::uint64_t kDefaultSeed = 0xfa017ull;

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan,
                             obs::Telemetry *telemetry)
    : plan_(plan), rng_(plan.seed ? plan.seed : kDefaultSeed)
{
    if (telemetry) {
        tracer_ = &telemetry->tracer();
        auto &m = telemetry->metrics();
        m_read_faults_ = &m.counter("fault.read_faults");
        m_write_rejects_ = &m.counter("fault.write_rejects");
        m_polls_dropped_ = &m.counter("fault.polls_dropped");
        m_link_flaps_ = &m.counter("fault.link_flaps");
        m_ring_stalls_ = &m.counter("fault.ring_stalls");
        m_churn_events_ = &m.counter("fault.churn_events");
    }
}

void
FaultInjector::addNic(net::NicQueue &nic)
{
    nics_.push_back(&nic);
}

void
FaultInjector::setRegistry(core::TenantRegistry *registry)
{
    registry_ = registry;
}

bool
FaultInjector::isCounterAddr(std::uint32_t addr)
{
    using namespace rdt::msr_addr;
    return addr == IA32_FIXED_CTR0 || addr == IA32_FIXED_CTR1 ||
           addr == PMC_LLC_REFERENCE || addr == PMC_LLC_MISS ||
           addr == IA32_QM_CTR || addr >= CHA_CTR_BASE;
}

void
FaultInjector::traceEvent(double now, const char *name, double value)
{
    if (tracer_ && tracer_->enabled())
        tracer_->instant(now, "fault", name, {{"value", value}});
}

void
FaultInjector::arm(sim::Engine &engine, sim::Platform &platform)
{
    sim::Platform *plat = &platform;
    engine.at(plan_.start_seconds, [this, plat](double now) {
        plat->msrBus().setFaultHook(this);
        armed_ = true;
        traceEvent(now, "fault.armed", 1.0);
    });
    if (plan_.duration_seconds > 0.0) {
        engine.at(plan_.start_seconds + plan_.duration_seconds,
                  [this, plat](double now) {
                      plat->msrBus().setFaultHook(nullptr);
                      armed_ = false;
                      traceEvent(now, "fault.disarmed", 1.0);
                  });
    }

    sim::Engine *eng = &engine;
    if (plan_.link_flap_period_seconds > 0.0 &&
        plan_.link_down_seconds > 0.0) {
        engine.addPeriodic(
            plan_.link_flap_period_seconds,
            [this, eng](double now) {
                if (!active())
                    return;
                ++link_flaps_;
                if (m_link_flaps_)
                    m_link_flaps_->inc();
                traceEvent(now, "fault.link_down",
                           plan_.link_down_seconds);
                for (auto *nic : nics_)
                    nic->setLinkUp(false);
                eng->at(now + plan_.link_down_seconds,
                        [this](double t_up) {
                            traceEvent(t_up, "fault.link_up", 1.0);
                            for (auto *nic : nics_)
                                nic->setLinkUp(true);
                        });
            },
            plan_.start_seconds + plan_.link_flap_period_seconds);
    }

    if (plan_.ring_stall_period_seconds > 0.0 &&
        plan_.ring_stall_seconds > 0.0) {
        engine.addPeriodic(
            plan_.ring_stall_period_seconds,
            [this, eng](double now) {
                if (!active())
                    return;
                ++ring_stalls_;
                if (m_ring_stalls_)
                    m_ring_stalls_->inc();
                traceEvent(now, "fault.ring_stall",
                           plan_.ring_stall_seconds);
                for (auto *nic : nics_)
                    nic->setRxStalled(true);
                eng->at(now + plan_.ring_stall_seconds,
                        [this](double t_up) {
                            traceEvent(t_up, "fault.ring_resume",
                                       1.0);
                            for (auto *nic : nics_)
                                nic->setRxStalled(false);
                        });
            },
            plan_.start_seconds + plan_.ring_stall_period_seconds);
    }

    if (plan_.churn_period_seconds > 0.0) {
        engine.addPeriodic(
            plan_.churn_period_seconds,
            [this](double now) {
                if (!active() || registry_ == nullptr)
                    return;
                if (parked_) {
                    registry_->add(*parked_);
                    parked_.reset();
                    ++churn_events_;
                    if (m_churn_events_)
                        m_churn_events_->inc();
                    traceEvent(now, "fault.tenant_arrival", 1.0);
                } else if (registry_->size() > 1) {
                    parked_ = registry_->removeLast();
                    ++churn_events_;
                    if (m_churn_events_)
                        m_churn_events_->inc();
                    traceEvent(now, "fault.tenant_departure", 1.0);
                }
            },
            plan_.start_seconds + plan_.churn_period_seconds);
    }
}

bool
FaultInjector::dropPoll(double now)
{
    if (!active() || plan_.poll_drop <= 0.0)
        return false;
    if (rng_.uniform() >= plan_.poll_drop)
        return false;
    ++polls_dropped_;
    if (m_polls_dropped_)
        m_polls_dropped_->inc();
    traceEvent(now, "fault.poll_dropped", 1.0);
    return true;
}

std::uint64_t
FaultInjector::onRead(cache::CoreId /*core*/, std::uint32_t addr,
                      std::uint64_t value)
{
    if (!active() || !isCounterAddr(addr))
        return value;

    std::uint64_t out = value;
    if (plan_.read_noise > 0.0 &&
        rng_.uniform() < plan_.read_noise) {
        // Log-uniform multiplicative factor in [1/m, m]: sampling
        // noise is proportional to the reading, as uncore counter
        // glitches on real parts tend to be.
        const double exponent = 2.0 * rng_.uniform() - 1.0;
        const double factor =
            std::exp(std::log(plan_.read_noise_mag) * exponent);
        out = static_cast<std::uint64_t>(
            static_cast<double>(out) * factor);
        ++read_faults_;
        if (m_read_faults_)
            m_read_faults_->inc();
    }
    // The wrap offset shifts monotonic counters toward the 48-bit
    // boundary; QM_CTR is excluded because occupancy is a level, not
    // an accumulator -- offsetting it would model a different fault.
    if (plan_.counter_offset != 0 &&
        addr != rdt::msr_addr::IA32_QM_CTR) {
        out = (out + plan_.counter_offset) & kMask48;
    }
    return out;
}

bool
FaultInjector::onWrite(cache::CoreId /*core*/, std::uint32_t /*addr*/,
                       std::uint64_t /*value*/)
{
    if (!active() || plan_.write_reject <= 0.0)
        return true;
    if (rng_.uniform() >= plan_.write_reject)
        return true;
    ++write_rejects_;
    if (m_write_rejects_)
        m_write_rejects_->inc();
    return false;
}

void
attachPolicy(sim::Engine &engine, core::Policy &policy, double interval,
             FaultInjector *injector)
{
    if (policy.kind() == core::PolicyKind::Static)
        return;
    core::Policy *p = &policy;
    engine.addPeriodic(
        interval,
        [p, injector](double now) {
            if (injector && injector->dropPoll(now))
                return;
            p->tick(now);
        },
        0.0);
}

} // namespace iat::fault
