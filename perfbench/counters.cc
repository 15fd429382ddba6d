/**
 * @file
 * Platform counter snapshots and the cache/mem/rdt layer metrics
 * derived from them.
 */

#include "perfbench/common.hh"
#include "sim/platform.hh"

namespace perf {

Counters &
Counters::operator+=(const Counters &o)
{
    llc_refs += o.llc_refs;
    llc_misses += o.llc_misses;
    ddio_hits += o.ddio_hits;
    ddio_misses += o.ddio_misses;
    writebacks += o.writebacks;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    dram_read += o.dram_read;
    dram_write += o.dram_write;
    msr_reads += o.msr_reads;
    msr_writes += o.msr_writes;
    return *this;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d = *this;
    d.llc_refs -= o.llc_refs;
    d.llc_misses -= o.llc_misses;
    d.ddio_hits -= o.ddio_hits;
    d.ddio_misses -= o.ddio_misses;
    d.writebacks -= o.writebacks;
    d.l2_hits -= o.l2_hits;
    d.l2_misses -= o.l2_misses;
    d.dram_read -= o.dram_read;
    d.dram_write -= o.dram_write;
    d.msr_reads -= o.msr_reads;
    d.msr_writes -= o.msr_writes;
    return d;
}

Counters
readCounters(iat::sim::Platform &p)
{
    Counters c;
    const auto &llc = p.llc();
    for (unsigned core = 0; core < llc.numCores(); ++core) {
        c.llc_refs += llc.coreCounters(core).llc_refs;
        c.llc_misses += llc.coreCounters(core).llc_misses;
        c.l2_hits += p.l2(core).hits();
        c.l2_misses += p.l2(core).misses();
    }
    for (unsigned s = 0; s < llc.geometry().num_slices; ++s) {
        c.ddio_hits += llc.sliceCounters(s).ddio_hits;
        c.ddio_misses += llc.sliceCounters(s).ddio_misses;
    }
    c.writebacks = llc.totalWritebacks();
    c.dram_read = p.dram().counters().totalReadBytes();
    c.dram_write = p.dram().counters().totalWriteBytes();
    c.msr_reads = p.msrBus().readCount();
    c.msr_writes = p.msrBus().writeCount();
    return c;
}

namespace {

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

} // namespace

void
reportCounters(Report &report, const Counters &d, double window_s,
               double peak_bw)
{
    const std::uint64_t ddio = d.ddio_hits + d.ddio_misses;
    const std::uint64_t l2 = d.l2_hits + d.l2_misses;
    report.metric("cache.llc.core_ops", static_cast<double>(d.llc_refs),
                  "count");
    report.metric("cache.llc.core_hit_rate",
                  d.llc_refs ? 1.0 - ratio(d.llc_misses, d.llc_refs)
                             : 0.0,
                  "ratio");
    report.metric("cache.llc.ddio_writes", static_cast<double>(ddio),
                  "count");
    report.metric("cache.llc.ddio_hit_rate", ratio(d.ddio_hits, ddio),
                  "ratio");
    report.metric("cache.llc.writebacks",
                  static_cast<double>(d.writebacks), "count");
    report.metric("cache.l2.accesses", static_cast<double>(l2), "count");
    report.metric("cache.l2.hit_rate", ratio(d.l2_hits, l2), "ratio");
    report.metric("mem.dram.read_mib", d.dram_read / 1048576.0, "MiB");
    report.metric("mem.dram.write_mib", d.dram_write / 1048576.0, "MiB");
    report.metric("mem.dram.utilization",
                  window_s > 0.0 && peak_bw > 0.0
                      ? (d.dram_read + d.dram_write) / window_s / peak_bw
                      : 0.0,
                  "ratio");
    report.metric("rdt.msr.reads", static_cast<double>(d.msr_reads),
                  "count");
    report.metric("rdt.msr.writes", static_cast<double>(d.msr_writes),
                  "count");
}

} // namespace perf
