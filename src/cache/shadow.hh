/**
 * @file
 * Shadow observer interface for the sliced LLC.
 *
 * A shadow is notified of every state-changing operation on a
 * SlicedLlc -- configuration writes and accesses alike -- *after* the
 * real model applied it, together with the real model's verdict. The
 * differential harness in src/check implements this interface to
 * drive a deliberately naive reference model in lockstep and diff the
 * two (see check/diff.hh). Keeping the interface here, below the
 * cache layer, lets the LLC stay ignorant of who is watching.
 *
 * Batched paths (accessBatch / ddioWriteRange) notify per element in
 * slice-binned order, not array order. That is sufficient for any
 * observer that models the same state factorization the LLC argues
 * for in accessBatch(): per-slice subsequences are preserved, and
 * cross-slice effects are commutative sums.
 */

#ifndef IATSIM_CACHE_SHADOW_HH
#define IATSIM_CACHE_SHADOW_HH

#include "cache/types.hh"
#include "cache/way_mask.hh"

namespace iat::cache {

/** Observer of one SlicedLlc; attach via SlicedLlc::setShadow(). */
class LlcShadow
{
  public:
    virtual ~LlcShadow() = default;

    /// @name Configuration mirror
    /// @{
    virtual void onSetClosMask(ClosId clos, WayMask mask) = 0;
    virtual void onAssocCoreClos(CoreId core, ClosId clos) = 0;
    virtual void onAssocCoreRmid(CoreId core, RmidId rmid) = 0;
    virtual void onSetDdioMask(WayMask mask) = 0;
    virtual void onSetDeviceDdioMask(DeviceId dev, WayMask mask) = 0;
    virtual void onClearDeviceDdioMask(DeviceId dev) = 0;
    virtual void onSetDdioEnabled(bool enabled) = 0;
    /// @}

    /// @name Access mirror
    /// Called once per line-granular op with the real model's verdict.
    /// @{

    /** Core demand access or core writeback (writeback=true). */
    virtual void onCoreOp(CoreId core, Addr addr, AccessType type,
                          bool writeback, bool hit,
                          bool victim_writeback) = 0;

    /** Inbound DMA write of one line (scalar or range element). */
    virtual void onDdioWrite(Addr addr, DeviceId dev,
                             const AccessResult &result) = 0;

    /** Outbound DMA read of one line. */
    virtual void onDeviceRead(Addr addr, DeviceId dev,
                              const AccessResult &result) = 0;

    virtual void onInvalidate(Addr addr) = 0;
    virtual void onFlushAll() = 0;
    /// @}
};

} // namespace iat::cache

#endif // IATSIM_CACHE_SHADOW_HH
