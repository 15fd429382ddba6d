/**
 * @file
 * The policy bakeoff: every registered policy head-to-head on every
 * shipped scenario, with a fairness axis (ROADMAP "Policy bakeoff").
 *
 * One case = one (policy, scenario, fault plan) triple, and runs as
 * N+1 fully independent passes sharing nothing but the seed:
 *
 *  - N solo passes, one per measured tenant: the static layout is
 *    applied, the tenant's CLOS is then widened to the full LLC, and
 *    every *other* measured tenant's workload is quiesced via the
 *    world's setTenantActive(). The tenant's IPC over a settled
 *    window is its solo reference. Infrastructure tenants (the
 *    SoftwareStack priority) keep running -- they are the machine,
 *    not a contender -- and solo passes are always fault-free: the
 *    reference is the ideal machine.
 *  - one policy pass with all workloads live, the policy built by
 *    core::makePolicy() and hooked by fault::attachPolicy() like in
 *    the figure benches, and the fault plan (if any) armed after
 *    attach per the injector's lifecycle contract.
 *
 * Fairness comes out of computeFairness() (bench/common.hh): per
 * tenant slowdown = IPC_solo / IPC_policy, Jain's index over
 * normalized progress, and the worst tenant's slowdown. Throughput
 * and p99 are scenario-native (World::delivered(): packets for
 * agg/slicing, Redis responses for corun; World::latency() for the
 * p99), reported in M items/s and microseconds so one table holds
 * all scenarios.
 *
 * Determinism contract: everything reported derives from simulator
 * counters under a per-trial seed, so the campaign JSONL is
 * byte-identical across runs and --jobs values (the CI bakeoff-smoke
 * job diffs the digests).
 */

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweeps.hh"
#include "fault/injector.hh"
#include "scenarios/agg_testpmd.hh"
#include "scenarios/common.hh"
#include "scenarios/corun.hh"
#include "scenarios/slicing_pmd_xmem.hh"
#include "util/units.hh"

namespace iat::bench {

namespace {

/** Build scenario @p name's world; the platform and engine stay
 *  with the caller (one fresh pair per pass). */
std::unique_ptr<scenarios::World>
makeScenario(const std::string &name, sim::Platform &platform,
             std::uint64_t seed)
{
    if (name == "agg") {
        scenarios::AggTestPmdConfig cfg;
        cfg.frame_bytes = 64;
        // The top of the Fig 9 ramp: flow state large enough that
        // the OVS classifier is LLC-bound and the policies diverge.
        cfg.flows = 1'000'000;
        cfg.flow_dist = net::FlowDistribution::Uniform;
        cfg.seed = seed;
        return std::make_unique<scenarios::AggTestPmdWorld>(platform,
                                                            cfg);
    }
    if (name == "slicing") {
        scenarios::SlicingPmdXmemConfig cfg;
        // Fig 10's latent contender, already grown: container 4's
        // working set overflows its two ways from the start, so the
        // policies must cope rather than coast.
        cfg.xmem_initial_bytes = 8 * MiB;
        cfg.seed = seed;
        return std::make_unique<scenarios::SlicingPmdXmemWorld>(
            platform, cfg);
    }
    if (name == "corun") {
        // Redis behind an OVS-style switch (aggregation), as the
        // fig12-14 benches run it.
        scenarios::CorunConfig cfg;
        cfg.net_app = scenarios::CorunConfig::NetApp::Redis;
        cfg.pc_app = "mcf";
        cfg.seed = seed;
        return std::make_unique<scenarios::CorunWorld>(platform, cfg);
    }
    throw std::runtime_error("unknown bakeoff scenario '" + name +
                             "'");
}

/** Tenants the fairness axis compares: everything but the stack. */
std::vector<std::size_t>
measuredTenants(const core::TenantRegistry &registry)
{
    std::vector<std::size_t> out;
    for (std::size_t t = 0; t < registry.size(); ++t) {
        if (registry[t].priority !=
            core::TenantPriority::SoftwareStack)
            out.push_back(t);
    }
    return out;
}

/** One solo reference: @p tenant alone on the full LLC. */
double
soloIpc(const std::string &scenario, std::size_t tenant,
        double settle, double window, std::uint64_t seed)
{
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);
    auto world = makeScenario(scenario, platform, seed);
    world->attach(engine);

    auto &registry = world->registry();
    scenarios::applyStaticLayout(platform.pqos(), registry);
    // The solo tenant gets the whole cache (CLOS t+1 by the repo's
    // convention); DDIO stays at the hardware default.
    auto &pqos = platform.pqos();
    pqos.l3caSet(static_cast<cache::ClosId>(tenant + 1),
                 cache::WayMask::fromRange(0, pqos.l3NumWays()));
    for (const auto other : measuredTenants(registry)) {
        if (other != tenant)
            world->setTenantActive(other, false);
    }

    engine.run(settle);
    const auto before = sim::PlatformSnapshot::capture(platform);
    engine.run(window);
    return ipc(sim::PlatformSnapshot::capture(platform)
                   .since(before)
                   .sumCores(registry[tenant].cores));
}

} // namespace

const std::vector<std::string> &
bakeoffScenarios()
{
    static const std::vector<std::string> all = {"agg", "slicing",
                                                 "corun"};
    return all;
}

BakeoffResult
bakeoffRunCase(core::PolicyKind kind, const std::string &scenario,
               const fault::FaultPlan &plan, double scale,
               std::uint64_t seed)
{
    const double settle = 0.04 * scale;
    const double window = 0.06 * scale;

    BakeoffResult r;

    // --- The policy pass: everything live, policy attached. ---
    sim::PlatformConfig pc;
    pc.num_cores = 8;
    sim::Platform platform(pc);
    sim::Engine engine(platform);
    auto world = makeScenario(scenario, platform, seed);
    world->attach(engine);
    auto &registry = world->registry();
    const auto measured = measuredTenants(registry);

    core::IatParams params;
    params.interval_seconds = 5e-3;

    fault::FaultPlan effective = plan;
    if (effective.seed == 0)
        effective.seed = seed;
    std::unique_ptr<fault::FaultInjector> injector;
    if (effective.any())
        injector = std::make_unique<fault::FaultInjector>(effective);

    const auto policy = core::makePolicy(
        kind, platform.pqos(), registry, params, world->model());
    fault::attachPolicy(engine, *policy, params.interval_seconds,
                        injector.get());
    if (injector) {
        for (unsigned i = 0; i < world->nicCount(); ++i)
            injector->addNic(world->nic(i));
        injector->setRegistry(&registry);
        injector->arm(engine, platform);
    }

    engine.run(settle);
    world->resetStats();
    const auto before = sim::PlatformSnapshot::capture(platform);
    engine.run(window);
    const auto delta =
        sim::PlatformSnapshot::capture(platform).since(before);
    for (const auto t : measured)
        r.run_ipc.push_back(ipc(delta.sumCores(registry[t].cores)));
    r.tput_mps =
        static_cast<double>(world->delivered()) / window / 1e6;
    r.p99_us = world->latency().percentile(0.99) * 1e6;
    r.hw_ddio_ways = platform.pqos().ddioGetWays().count();
    if (injector) {
        r.read_faults = injector->readFaults();
        r.write_rejects = injector->writeRejects();
        r.polls_dropped = injector->pollsDropped();
    }

    // --- Solo references (always fault-free). ---
    for (const auto t : measured)
        r.solo_ipc.push_back(
            soloIpc(scenario, t, settle, window, seed));

    const auto fairness = computeFairness(r.solo_ipc, r.run_ipc);
    r.slowdown = fairness.slowdown;
    r.jain = fairness.jain;
    r.worst_slowdown = fairness.worst_slowdown;
    return r;
}

namespace {

/**
 * Bakeoff trial: one (scenario, policy) case under the spec's
 * `[fault]` plan unless its `faults` param is 0 (trialFaulted()),
 * so one spec carries both the clean and the faulted campaigns.
 */
exp::TrialResult
bakeoffTrial(const exp::TrialContext &ctx)
{
    const std::string scenario = ctx.requireString("scenario");
    const std::string policy_name = ctx.requireString("policy");
    core::PolicyKind kind;
    if (!core::parsePolicyKind(policy_name, kind))
        throw std::runtime_error("unknown policy '" + policy_name +
                                 "'");
    const auto plan = trialFaulted(ctx)
                          ? fault::FaultPlan::fromPairs(ctx.params)
                          : fault::FaultPlan{};

    const auto r =
        bakeoffRunCase(kind, scenario, plan, ctx.scale, ctx.seed);

    exp::TrialResult result;
    result.add("tput_mps", r.tput_mps);
    result.add("p99_us", r.p99_us);
    result.add("jain", r.jain);
    result.add("worst_slowdown", r.worst_slowdown);
    result.add("hw_ddio_ways", r.hw_ddio_ways);
    for (std::size_t i = 0; i < r.slowdown.size(); ++i) {
        result.add("slowdown_" + std::to_string(i), r.slowdown[i]);
    }
    result.add("read_faults", static_cast<double>(r.read_faults));
    result.add("write_rejects",
               static_cast<double>(r.write_rejects));
    result.add("polls_dropped",
               static_cast<double>(r.polls_dropped));
    return result;
}

} // namespace

void
registerBakeoffSweeps(exp::TrialRegistry &registry)
{
    registry.add("bakeoff",
                 "policy head-to-head on one scenario: throughput, "
                 "p99, Jain fairness vs solo references",
                 bakeoffTrial);
}

} // namespace iat::bench
