/**
 * @file
 * The cache layer's own speed, measured outside the event core: an
 * LlcShadow recorder captures an exact LLC's op stream (configuration
 * writes and line-granular accesses, with the model's verdicts), and
 * the stream is replayed through a fresh exact SlicedLlc's scalar
 * calls. The replay checks every verdict, so the timed work is the
 * same work the model did inside the world.
 */

#ifndef IATPERF_LLC_REPLAY_HH
#define IATPERF_LLC_REPLAY_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/shadow.hh"

namespace perf {

/** Shadow observer that counts every op class and stores the ops
 *  for replay, up to a limit on stored accesses. */
class LlcRecorder final : public iat::cache::LlcShadow
{
  public:
    /** Store at most @p more further accesses (default: no limit). */
    void
    storeAtMost(std::size_t more)
    {
        max_ops_ = stored_accesses_ + more;
    }

    /// Ops seen since attach, by class.
    std::uint64_t core_demand = 0;
    std::uint64_t core_writebacks = 0;
    std::uint64_t ddio_writes = 0;
    std::uint64_t device_reads = 0;

    /** Accesses stored so far (configuration writes excluded). */
    std::size_t storedAccesses() const { return stored_accesses_; }

    /**
     * Replay the stored stream @p reps times, each into a fresh exact
     * LLC of @p geom with @p num_cores cores. Accesses before the
     * first @p warm_accesses only rebuild the state; the rest are
     * timed. Returns the host nanoseconds per timed access of each
     * repetition; @p mismatches counts verdicts that differ from the
     * recorded ones.
     */
    std::vector<double> replay(const iat::cache::CacheGeometry &geom,
                               unsigned num_cores,
                               std::size_t warm_accesses, unsigned reps,
                               std::uint64_t &mismatches) const;

    void onSetClosMask(iat::cache::ClosId clos,
                       iat::cache::WayMask mask) override;
    void onAssocCoreClos(iat::cache::CoreId core,
                         iat::cache::ClosId clos) override;
    void onAssocCoreRmid(iat::cache::CoreId core,
                         iat::cache::RmidId rmid) override;
    void onSetDdioMask(iat::cache::WayMask mask) override;
    void onSetDeviceDdioMask(iat::cache::DeviceId dev,
                             iat::cache::WayMask mask) override;
    void onClearDeviceDdioMask(iat::cache::DeviceId dev) override;
    void onSetDdioEnabled(bool enabled) override;
    void onCoreOp(iat::cache::CoreId core, iat::cache::Addr addr,
                  iat::cache::AccessType type, bool writeback, bool hit,
                  bool victim_writeback) override;
    void onDdioWrite(iat::cache::Addr addr, iat::cache::DeviceId dev,
                     const iat::cache::AccessResult &result) override;
    void onDeviceRead(iat::cache::Addr addr, iat::cache::DeviceId dev,
                      const iat::cache::AccessResult &result) override;
    void onInvalidate(iat::cache::Addr addr) override;
    void onFlushAll() override;

  private:
    enum class Kind : std::uint8_t
    {
        ClosMask,
        CoreClos,
        CoreRmid,
        DdioMask,
        DeviceDdioMask,
        ClearDeviceDdioMask,
        DdioEnabled,
        CoreDemand,
        CoreWriteback,
        DdioWrite,
        DeviceRead,
        Invalidate,
        FlushAll,
    };

    struct Op
    {
        iat::cache::Addr addr = 0;
        std::uint32_t mask = 0;
        std::uint16_t a = 0; ///< core, device or CLOS
        std::uint16_t b = 0; ///< CLOS or RMID
        Kind kind = Kind::FlushAll;
        bool write = false; ///< AccessType::Write / DDIO enabled
        bool hit = false;
        bool victim_wb = false;
    };

    void store(const Op &op, bool access);

    std::size_t max_ops_ = SIZE_MAX;
    std::size_t stored_accesses_ = 0;
    bool full_ = false;
    std::vector<Op> ops_;
};

} // namespace perf

#endif // IATPERF_LLC_REPLAY_HH
