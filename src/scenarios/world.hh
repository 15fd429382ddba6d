/**
 * @file
 * The interface the aggregation, slicing and co-run worlds share.
 *
 * Every one of them owns a tenant registry, a set of NIC queues and
 * one packet pipeline over those NICs, so the bakeoff and iatctl
 * drive all three through this base. Only what differs between the
 * worlds is virtual: what a measurement window clears, how a
 * tenant's workload is paused, which tenant model the policies run
 * and what counts as delivered.
 *
 * Construction order is the derived world's business: NICs, pools
 * and tables allocate from the platform address space, and that
 * order fixes every cache set. The base allocates nothing there.
 */

#ifndef IATSIM_SCENARIOS_WORLD_HH
#define IATSIM_SCENARIOS_WORLD_HH

#include <memory>
#include <vector>

#include "core/tenant.hh"
#include "net/pipeline.hh"
#include "sim/engine.hh"
#include "util/stats.hh"

namespace iat::scenarios {

/** An assembled experiment world; see file comment. */
class World
{
  public:
    virtual ~World() = default;
    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Register the world's runnables, the pipeline first. */
    virtual void attach(sim::Engine &engine);

    /** IAT tenant records. */
    core::TenantRegistry &registry() { return registry_; }

    /** The packet pipeline, for telemetry attachment. */
    net::PacketPipeline *pipeline() { return &pipeline_; }

    net::NicQueue &nic(unsigned i) { return *nics_[i]; }
    unsigned nicCount() const
    {
        return static_cast<unsigned>(nics_.size());
    }

    /** Frames transmitted on all NICs since the last reset. */
    std::uint64_t txPackets() const;

    /** Frames received on all NICs since the last reset. */
    std::uint64_t rxPackets() const;

    /** Client-observed latency: the NICs' histograms merged. */
    LatencyHistogram latency() const;

    /** Clear the measurement window; the base clears the NICs'
     *  counters and latency. */
    virtual void resetStats();

    /** Pause/resume the workload driving tenant @p t (fairness solo
     *  runs). */
    virtual void setTenantActive(std::size_t t, bool active) = 0;

    /** The tenant-classification model the policies should run. */
    virtual core::TenantModel model() const = 0;

    /** Items delivered since the last reset; the base counts frames
     *  transmitted. */
    virtual std::uint64_t delivered() const { return txPackets(); }

  protected:
    explicit World(sim::Platform &platform)
        : platform_(platform), pipeline_(platform)
    {
    }

    sim::Platform &platform_;
    core::TenantRegistry registry_;
    std::vector<std::unique_ptr<net::NicQueue>> nics_;
    /** Outlives the derived worlds' handlers and rings it serves. */
    net::PacketPipeline pipeline_;
};

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_WORLD_HH
