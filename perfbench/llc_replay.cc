/**
 * @file
 * LlcRecorder implementation.
 */

#include "perfbench/llc_replay.hh"

#include "cache/llc.hh"
#include "perfbench/common.hh"

namespace perf {

using namespace iat::cache;

void
LlcRecorder::store(const Op &op, bool access)
{
    // Configuration writes after the access cap are dropped with the
    // accesses: the stored stream stays a prefix of the real one.
    if (full_)
        return;
    if (access && stored_accesses_ == max_ops_) {
        full_ = true;
        return;
    }
    ops_.push_back(op);
    if (access)
        ++stored_accesses_;
}

void
LlcRecorder::onSetClosMask(ClosId clos, WayMask mask)
{
    store({0, mask.bits(), clos, 0, Kind::ClosMask}, false);
}

void
LlcRecorder::onAssocCoreClos(CoreId core, ClosId clos)
{
    store({0, 0, core, clos, Kind::CoreClos}, false);
}

void
LlcRecorder::onAssocCoreRmid(CoreId core, RmidId rmid)
{
    store({0, 0, core, rmid, Kind::CoreRmid}, false);
}

void
LlcRecorder::onSetDdioMask(WayMask mask)
{
    store({0, mask.bits(), 0, 0, Kind::DdioMask}, false);
}

void
LlcRecorder::onSetDeviceDdioMask(DeviceId dev, WayMask mask)
{
    store({0, mask.bits(), dev, 0, Kind::DeviceDdioMask}, false);
}

void
LlcRecorder::onClearDeviceDdioMask(DeviceId dev)
{
    store({0, 0, dev, 0, Kind::ClearDeviceDdioMask}, false);
}

void
LlcRecorder::onSetDdioEnabled(bool enabled)
{
    store({0, 0, 0, 0, Kind::DdioEnabled, enabled}, false);
}

void
LlcRecorder::onCoreOp(CoreId core, Addr addr, AccessType type,
                      bool writeback, bool hit, bool victim_writeback)
{
    if (writeback)
        ++core_writebacks;
    else
        ++core_demand;
    store({addr, 0, core, 0,
           writeback ? Kind::CoreWriteback : Kind::CoreDemand,
           type == AccessType::Write, hit, victim_writeback},
          true);
}

void
LlcRecorder::onDdioWrite(Addr addr, DeviceId dev,
                         const AccessResult &result)
{
    ++ddio_writes;
    store({addr, 0, dev, 0, Kind::DdioWrite, false, result.hit,
           result.writeback},
          true);
}

void
LlcRecorder::onDeviceRead(Addr addr, DeviceId dev,
                          const AccessResult &result)
{
    ++device_reads;
    store({addr, 0, dev, 0, Kind::DeviceRead, false, result.hit,
           result.writeback},
          true);
}

void
LlcRecorder::onInvalidate(Addr addr)
{
    store({addr, 0, 0, 0, Kind::Invalidate}, false);
}

void
LlcRecorder::onFlushAll()
{
    store({0, 0, 0, 0, Kind::FlushAll}, false);
}

std::vector<double>
LlcRecorder::replay(const CacheGeometry &geom, unsigned num_cores,
                    std::size_t warm_accesses, unsigned reps,
                    std::uint64_t &mismatches) const
{
    std::vector<double> ns_per_op;
    mismatches = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        SlicedLlc llc(geom, num_cores);
        std::size_t accesses = 0;
        std::uint64_t bad = 0;
        Clock::time_point t0 = Clock::now();
        for (const Op &op : ops_) {
            AccessResult r;
            bool access = true;
            switch (op.kind) {
              case Kind::ClosMask:
                llc.setClosMask(op.a, WayMask(op.mask));
                access = false;
                break;
              case Kind::CoreClos:
                llc.assocCoreClos(op.a, op.b);
                access = false;
                break;
              case Kind::CoreRmid:
                llc.assocCoreRmid(op.a, op.b);
                access = false;
                break;
              case Kind::DdioMask:
                llc.setDdioMask(WayMask(op.mask));
                access = false;
                break;
              case Kind::DeviceDdioMask:
                llc.setDeviceDdioMask(op.a, WayMask(op.mask));
                access = false;
                break;
              case Kind::ClearDeviceDdioMask:
                llc.clearDeviceDdioMask(op.a);
                access = false;
                break;
              case Kind::DdioEnabled:
                llc.setDdioEnabled(op.write);
                access = false;
                break;
              case Kind::Invalidate:
                llc.invalidate(op.addr);
                access = false;
                break;
              case Kind::FlushAll:
                llc.flushAll();
                access = false;
                break;
              case Kind::CoreDemand:
                r = llc.coreAccess(op.a, op.addr,
                                   op.write ? AccessType::Write
                                            : AccessType::Read);
                break;
              case Kind::CoreWriteback:
                r = llc.writebackFromCore(op.a, op.addr);
                break;
              case Kind::DdioWrite:
                r = llc.ddioWrite(op.addr, op.a);
                break;
              case Kind::DeviceRead:
                r = llc.deviceRead(op.addr, op.a);
                break;
            }
            if (!access)
                continue;
            bad += (r.hit != op.hit) + (r.writeback != op.victim_wb);
            if (++accesses == warm_accesses)
                t0 = Clock::now();
        }
        const double timed = static_cast<double>(
            accesses > warm_accesses ? accesses - warm_accesses : 0);
        const double host_s = secondsBetween(t0, Clock::now());
        ns_per_op.push_back(timed > 0.0 ? host_s / timed * 1e9 : 0.0);
        mismatches += bad;
    }
    return ns_per_op;
}

} // namespace perf
