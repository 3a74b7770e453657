#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

double
secondsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double>(t - origin).count();
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream +
                 0x632be59bd9b4e019ULL;
    for (int round = 0; round < 2; ++round) {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
    }
    return z;
}

std::vector<double>
arrivalSchedule(uint64_t seed, double rate, double seconds)
{
    if (!(rate > 0.0) || !(seconds > 0.0) || rate * seconds > 1e7)
        throw std::invalid_argument(
            "arrivalSchedule: need rate > 0, seconds > 0 and at most "
            "1e7 arrivals");
    // A Poisson process conditioned on n = round(rate * seconds)
    // arrivals: n + 1 exponential gaps, rescaled to span the window.
    // Fixing n keeps the offered load identical from run to run.
    const long n = std::lround(rate * seconds);
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(n) + 1);
    double t = 0.0;
    for (long k = 0; k <= n; ++k) {
        // 53-bit uniform in (0, 1]: never log(0).
        const double u =
            (static_cast<double>(deriveSeed(seed, k) >> 11) + 1.0) *
            0x1.0p-53;
        t += -std::log(u);
        times.push_back(t);
    }
    const double scale = seconds / t;
    times.pop_back();
    for (double &x : times)
        x *= scale;
    return times;
}

namespace {

/** 1-based nearest rank of percentile @p q in @p n samples (the
 * tolerance keeps q * n that is whole in decimal from rounding up). */
long
nearestRank(long n, double q)
{
    const long rank =
        static_cast<long>(std::ceil(q * static_cast<double>(n) / 100.0 -
                                    1e-9));
    return std::clamp(rank, 1L, n);
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(static_cast<long>(values.size()), q) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

long
samplesBeyond(long n, double q)
{
    return n <= 0 ? 0 : n - nearestRank(n, q);
}

double
tailPercentile(long n)
{
    for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
        if (samplesBeyond(n, q) >= 10)
            return q;
    return 0.0;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'A' && c <= 'Z') ||
                        (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!validMetricName(std::string(1, c)) && c != '/' && c != '%')
            return false;
    return true;
}

const std::vector<std::string> &
endToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "latency_p50_ms",   "latency_tail_ms", "slo_met_frac",
        "jobs_per_s",       "msites_per_s",    "quality_accuracy",
        "quality_epe_px",   "setup_s",         "peak_heap_mib",
    };
    return names;
}

const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = {
        "workload.make_ms",
        "engine.submit_us_p50",
        "engine.submit_us_p99",
        "engine.outside_run_ms_p50",
        "engine.outside_run_ms_p99",
        "engine.run_ms_p50",
        "engine.pending_max",
        "engine.table_hit_frac",
        "engine.table_build_ms_p50",
        "engine.job_overhead_frac",
        "executor.sweep_ms_p50",
        "executor.scaling_eff.seg1024",
        "executor.scaling_eff.motion512",
        "executor.small_speedup.s128",
        "mrf.ns_per_site.table.m5",
        "mrf.ns_per_site.table.m49",
        "mrf.ns_per_site.simd.m5",
        "mrf.ns_per_site.simd.m49",
        "mrf.bytes_per_site.m5",
        "mrf.bytes_per_site.m49",
        "mrf.table_build_ms.m5",
        "mrf.table_build_ms.m49",
        "mrf.ml_init_ms.m5",
        "mrf.ml_init_ms.m49",
        "mrf.total_energy_ms.m5",
        "mrf.total_energy_ms.m49",
        "mrf.site_updates",
        "mrf.energy_evals",
        "mrf.exp_calls",
        "mrf.random_draws",
        "rsu.host_ns_per_label_eval",
        "rsu.stall_frac",
        "rsu.misfire_frac",
        "rsu.label_evals",
        "vision.quality_ms",
        "loadgen.lag_ms_p99",
        "trace.overhead.latency_p50_ms",
        "trace.overhead.jobs_per_s",
    };
    return names;
}

namespace {

std::string
number(double value)
{
    if (!std::isfinite(value))
        throw std::invalid_argument("perfbench: non-finite metric");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

std::string
resultJson(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::set<std::string> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : metrics) {
        if (!validMetricName(m.name) || !validUnit(m.unit))
            throw std::invalid_argument("perfbench: bad metric name '" +
                                        m.name + "' or unit '" +
                                        m.unit + "'");
        if (!seen.insert(m.name).second)
            throw std::invalid_argument(
                "perfbench: metric reported twice: " + m.name);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

std::string
metricLine(const Metric &m)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-32s %14.6g %-10s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::string line = buf;
    if (m.samples > 0)
        line += " n=" + std::to_string(m.samples);
    if (!m.note.empty())
        line += " (" + m.note + ")";
    return line;
}

void
SpanRecorder::add(const std::string &layer, const std::string &name,
                  Clock::time_point start, Clock::time_point end,
                  uint64_t id, uint64_t parent, std::string args)
{
    if (!enabled_)
        return;
    Span span{name,
              layer,
              secondsSince(origin_, start) * 1e6,
              secondsSince(origin_, end) * 1e6,
              id,
              parent,
              std::move(args)};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %llu, \"args\": {\"id\": %llu, "
                     "\"parent\": %llu%s%s}}%s\n",
                     s.name.c_str(), s.layer.c_str(), s.start_us,
                     s.end_us - s.start_us,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     s.args.empty() ? "" : ", ", s.args.c_str(),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
