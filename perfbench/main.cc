/**
 * @file
 * iatperf: the benchmark program behind perfbench/run.py.
 *
 *   iatperf --workload=agg_line|cluster4|bakeoff_smoke --seed=N
 *           --seconds=S --trace=0|1 --spec=perfbench/bakeoff_smoke.exp
 *           [--spans=PATH]
 *
 * Runs one workload and prints one JSON object on the last line of
 * stdout: metrics by name and unit, the correctness checks, the
 * simulated-output digests and detail numbers. Exit status 1 when any
 * check failed, 2 on bad arguments. README.md documents the workloads
 * and every metric.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "perfbench/common.hh"
#include "util/logging.hh"

namespace perf {

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.median = n % 2 != 0 ? samples[n / 2]
                          : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    if (n > 20) {
        // Exactly ten samples lie below index 10 and above index
        // n - 11; both sit on their side of the median from 21 on.
        s.lo = samples[10];
        s.hi = samples[n - 11];
        s.hi_q = static_cast<double>(n - 10) / static_cast<double>(n);
    }
    return s;
}

std::string
hashHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check("finite." + name, false, "metric is not a finite number");
        value = 0.0;
    }
    for (auto &m : metrics_) {
        if (m.name == name) { // a later, more specific reading wins
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Report::timing(const std::string &name, const Summary &s,
               const std::string &unit, double scale)
{
    metric(name, s.median * scale, unit);
    detail(name + ".lo", s.lo * scale);
    detail(name + ".hi", s.hi * scale);
    detail(name + ".hi_q", s.hi_q);
    detail(name + ".n", static_cast<double>(s.n));
}

void
Report::detail(const std::string &name, double value)
{
    details_.emplace_back(name, std::isfinite(value) ? value : 0.0);
}

void
Report::check(const std::string &name, bool ok, const std::string &why)
{
    checks_.push_back({name, ok, ok ? std::string() : why});
}

void
Report::digest(const std::string &name, const std::string &value)
{
    digests_.emplace_back(name, value);
}

bool
Report::allChecksPassed() const
{
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check &c) { return c.ok; });
}

std::string
Report::toJson(const Options &opts) const
{
    const bool ok = allChecksPassed();
    std::ostringstream os;
    os << "{\"workload\":" << quoted(opts.workload)
       << ",\"seed\":" << opts.seed
       << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"seconds\":" << number(opts.seconds)
       << ",\"correct\":" << (ok ? "true" : "false")
       << ",\"attempted\":" << attempted
       << ",\"failed\":" << (ok ? 0 : attempted) << ",\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
        const auto &c = checks_[i];
        os << (i ? "," : "") << "{\"name\":" << quoted(c.name)
           << ",\"ok\":" << (c.ok ? "true" : "false");
        if (!c.why.empty())
            os << ",\"why\":" << quoted(c.why);
        os << "}";
    }
    os << "],\"digests\":{";
    for (std::size_t i = 0; i < digests_.size(); ++i) {
        os << (i ? "," : "") << quoted(digests_[i].first) << ":"
           << quoted(digests_[i].second);
    }
    os << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto &m = metrics_[i];
        os << (i ? "," : "") << quoted(m.name) << ":{\"value\":"
           << number(m.value) << ",\"unit\":" << quoted(m.unit) << "}";
    }
    os << "},\"detail\":{";
    for (std::size_t i = 0; i < details_.size(); ++i) {
        os << (i ? "," : "") << quoted(details_[i].first) << ":"
           << number(details_[i].second);
    }
    os << "}}";
    return os.str();
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::int32_t
SpanLog::begin(const char *name, std::int32_t parent, std::uint64_t id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, -1, parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanLog::end(std::int32_t span)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].end_ns = t;
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

double
SpanLog::totalSeconds(const char *name) const
{
    std::int64_t total = 0;
    for (const auto &s : spans()) {
        if (s.end_ns >= 0 && std::string_view(s.name) == name)
            total += s.end_ns - s.start_ns;
    }
    return static_cast<double>(total) * 1e-9;
}

double
SpanLog::selfSeconds(const char *name) const
{
    const auto all = spans();
    std::vector<std::int64_t> child_ns(all.size(), 0);
    for (const auto &s : all) {
        if (s.parent >= 0 && s.end_ns >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
    }
    std::int64_t self = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].end_ns >= 0 && std::string_view(all[i].name) == name)
            self += all[i].end_ns - all[i].start_ns - child_ns[i];
    }
    return static_cast<double>(self) * 1e-9;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const auto &s : spans()) {
        out << "{\"name\":" << quoted(s.name)
            << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id << "}\n";
    }
    return static_cast<bool>(out);
}

Stamp
stampNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return {Clock::now(),
            static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9};
}

double
Legs::close(const Stamp &start)
{
    const Stamp end = stampNow();
    wall_s.push_back(secondsBetween(start.wall, end.wall));
    cpu_s.push_back(end.cpu_s - start.cpu_s);
    return wall_s.back();
}

void
reportSpeed(Report &report, const Legs &legs, double leg_ms, ReadAt at)
{
    const Summary cpu = summarize(legs.cpu_s);
    const Summary wall = summarize(legs.wall_s);
    report.metric("sim_ms_per_s",
                  leg_ms / (at == ReadAt::FastEnd ? cpu.lo : cpu.median),
                  "sim-ms/s");
    report.detail("sim_ms_per_s.cpu_lo", leg_ms / cpu.lo);
    report.detail("sim_ms_per_s.cpu_median", leg_ms / cpu.median);
    report.detail("sim_ms_per_s.wall_lo", leg_ms / wall.lo);
    report.detail("sim_ms_per_s.wall_median", leg_ms / wall.median);
    report.timing("leg_cpu_s", cpu, "s");
    report.timing("leg_wall_s", wall, "s");
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

} // namespace perf

namespace {

/** Value of --name=value; empty when absent. */
std::string
flag(int argc, char **argv, const std::string &name)
{
    const std::string eq = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind(eq, 0) == 0)
            return a.substr(eq.size());
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    perf::Options opts;
    opts.workload = flag(argc, argv, "workload");
    opts.spec_path = flag(argc, argv, "spec");
    opts.spans_path = flag(argc, argv, "spans");
    try {
        const std::string seed = flag(argc, argv, "seed");
        const std::string seconds = flag(argc, argv, "seconds");
        const std::string trace = flag(argc, argv, "trace");
        opts.seed = seed.empty() ? 1 : std::stoull(seed);
        opts.seconds = seconds.empty() ? 10.0 : std::stod(seconds);
        opts.trace = !trace.empty() && std::stoi(trace) != 0;
    } catch (const std::exception &) {
        std::fprintf(stderr, "iatperf: bad numeric argument\n");
        return 2;
    }
    if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
        std::fprintf(stderr, "iatperf: --seconds must be in (0, 600]\n");
        return 2;
    }
    // Model warnings would interleave with the report on the console.
    iat::Logger::instance().setLevel(iat::LogLevel::Quiet);

    perf::Report report;
    if (opts.workload == "agg_line") {
        perf::runAggLine(opts, report);
    } else if (opts.workload == "cluster4") {
        perf::runCluster4(opts, report);
    } else if (opts.workload == "bakeoff_smoke") {
        if (opts.spec_path.empty()) {
            std::fprintf(stderr, "iatperf: bakeoff_smoke needs --spec\n");
            return 2;
        }
        perf::runBakeoffSmoke(opts, report);
    } else {
        std::fprintf(stderr,
                     "iatperf: unknown --workload '%s' (agg_line, "
                     "cluster4, bakeoff_smoke)\n",
                     opts.workload.c_str());
        return 2;
    }
    std::printf("%s\n", report.toJson(opts).c_str());
    std::fflush(stdout);
    return report.allChecksPassed() ? 0 : 1;
}
