/**
 * @file
 * NIC queue model: the DMA endpoints of the pipeline.
 *
 * A NicQueue stands for one receive/transmit queue pair -- a whole
 * physical port in the aggregation model, or one SR-IOV virtual
 * function in the slicing model (paper SS II-C). On the Rx side it
 * draws frames from a TrafficGen, takes a buffer from its mbuf pool,
 * DMA-writes the frame through the platform's DDIO path and posts a
 * descriptor to its Rx ring; no free buffer or a full ring means a
 * drop, counted before any DMA (real NICs drop at the MAC when no
 * descriptor is posted). On the Tx side it DMA-reads the frame
 * (LLC hit or DRAM, never allocating) and retires the buffer, logging
 * end-to-end latency.
 */

#ifndef IATSIM_NET_NIC_HH
#define IATSIM_NET_NIC_HH

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.hh"
#include "net/ring.hh"
#include "net/traffic.hh"
#include "sim/platform.hh"
#include "util/stats.hh"

namespace iat::net {

/** Rx statistics of one queue. */
struct NicRxStats
{
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t drops_no_buffer = 0;
    std::uint64_t drops_ring_full = 0;
    std::uint64_t drops_link_down = 0; ///< fault injection: link flap
    std::uint64_t drops_stalled = 0;   ///< fault injection: ring stall

    std::uint64_t
    totalDrops() const
    {
        return drops_no_buffer + drops_ring_full + drops_link_down +
               drops_stalled;
    }
};

/** Tx statistics of one queue. */
struct NicTxStats
{
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
};

/** One Rx/Tx queue pair; see file comment. */
class NicQueue
{
  public:
    /**
     * @param platform  Memory system the DMA engine writes through.
     * @param dev       Physical device id (VFs share their port's id).
     * @param name      For diagnostics and pool labelling.
     * @param traffic   Arrival process configuration.
     * @param ring_entries  Rx descriptor ring depth (paper dflt 1024).
     * @param pool_factor   Mbuf pool size as a multiple of the ring.
     * @param seed      Generator seed.
     */
    NicQueue(sim::Platform &platform, cache::DeviceId dev,
             const std::string &name, const TrafficConfig &traffic,
             std::uint32_t ring_entries, double pool_factor,
             std::uint64_t seed);

    /// @name Rx-side interface used by the pipeline
    /// @{
    double nextArrival() const { return next_arrival_; }

    /** Deliver the frame due at @p now; schedules the next one. */
    void deliverOne(double now);

    /**
     * Fast-forward through the run of *inert* arrivals: arrivals an
     * inactive generator swallows, or frames the MAC is guaranteed
     * to drop (ring full, pool empty). Such arrivals touch nothing
     * but this queue's drop counters and the generator's gap
     * sequence, so the whole run can be absorbed in one call -- up
     * to the earliest event that could end the regime, which the
     * caller passes per regime: @p inactive_limit (nothing inside a
     * quantum reactivates a generator), @p ring_limit (the claim of
     * the stage consuming this queue's Rx ring), @p pool_limit (the
     * earliest claim of any stage, since any of them may retire one
     * of this pool's buffers). If the next arrival would actually
     * deliver a frame, does nothing. Returns the new nextArrival().
     */
    double deliverUntil(double inactive_limit, double ring_limit,
                        double pool_limit);

    /** Pause/resume the generator (workload phases). */
    void setActive(bool active) { active_ = active; }
    bool active() const { return active_; }

    /// @name Fault injection (toggled between quanta, like setActive)
    /// @{

    /** Link state: while down, every arrival drops at the MAC. */
    void setLinkUp(bool up) { link_up_ = up; }
    bool linkUp() const { return link_up_; }

    /** Rx descriptor fetch stall: arrivals drop as if no descriptor
     *  were posted, without the ring actually being full. */
    void setRxStalled(bool stalled) { rx_stalled_ = stalled; }
    /// @}

    /** Retarget the offered rate (RFC2544 search, phases). */
    void setRate(double rate_pps) { traffic_.setRate(rate_pps); }

    /** Change the generated frame size (must fit the mbuf pool). */
    void
    setFrameBytes(std::uint32_t frame_bytes)
    {
        IAT_ASSERT(frame_bytes <= pool_.bufBytes(),
                   "frame larger than mbuf data room");
        traffic_.setFrameBytes(frame_bytes);
    }

    /** Change the generated flow population (Fig 9 ramps it). */
    void setNumFlows(std::uint64_t n) { traffic_.setNumFlows(n); }

    /**
     * Application-aware DDIO (paper SS VII): deliver only the first
     * @p bytes of each frame through DDIO, payload to DRAM.
     * 0 restores full-frame DDIO.
     */
    void setDdioHeaderSplit(std::uint64_t bytes)
    {
        header_split_bytes_ = bytes;
    }
    /// @}

    /**
     * Fabric ingress (cluster mode): deliver one frame that arrived
     * over the inter-host fabric instead of from this queue's own
     * TrafficGen. Takes the same MAC path as deliverOne() -- ring
     * capacity check, pool acquire, DMA write through DDIO, ring
     * push, drop counters -- but draws nothing from the generator, so
     * local arrival sequences are untouched. @p departed is the
     * frame's departure timestamp on the source host (all hosts share
     * one epoch-synchronized clock); it becomes Packet::arrival so Tx
     * latency covers fabric + queueing + service. Returns false when
     * the frame was dropped at the MAC.
     */
    bool injectRemote(double now, double departed, std::uint32_t bytes,
                      std::uint64_t flow);

    /** Transmit @p pkt at @p now: DMA-read, free buffer, log latency. */
    void transmit(Packet &pkt, double now);

    /** Drop @p pkt without transmitting (e.g. no route). */
    void dropForwardFailure(Packet &pkt);

    Ring &rxRing() { return rx_ring_; }
    BufferPool &pool() { return pool_; }
    cache::DeviceId device() const { return dev_; }
    const std::string &name() const { return name_; }

    const NicRxStats &rxStats() const { return rx_stats_; }
    const NicTxStats &txStats() const { return tx_stats_; }
    const LatencyHistogram &latency() const { return latency_; }
    void resetStats();

  private:
    sim::Platform &platform_;
    cache::DeviceId dev_;
    std::string name_;
    TrafficGen traffic_;
    Ring rx_ring_;
    BufferPool pool_;
    double next_arrival_;
    bool active_ = true;
    bool link_up_ = true;
    bool rx_stalled_ = false;
    std::uint64_t header_split_bytes_ = 0;

    NicRxStats rx_stats_;
    NicTxStats tx_stats_;
    LatencyHistogram latency_;
};

} // namespace iat::net

#endif // IATSIM_NET_NIC_HH
