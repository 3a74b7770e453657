/**
 * @file
 * Host-independent helpers of the repository benchmark: seed
 * derivation, the open-loop arrival schedule, order statistics with
 * the tail-percentile rule, metric naming, JSON output and the
 * in-memory span recorder used by traced runs.
 *
 * Nothing here touches the serving stack, so the helpers are tested
 * on their own (harness_test.cpp).
 */

#ifndef RSU_PERFBENCH_HARNESS_H
#define RSU_PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p origin to @p t. */
double secondsSince(Clock::time_point origin, Clock::time_point t);

/** Independent 64-bit seed for stream @p stream of workload seed
 * @p seed (SplitMix64 finalizer over both). */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * Poisson arrival offsets (seconds from the run start, ascending) at
 * @p rate jobs/s over [0, @p seconds), conditioned on exactly
 * round(rate * seconds) arrivals. Depends only on the arguments: the
 * same seed gives the same schedule on every host.
 */
std::vector<double> arrivalSchedule(uint64_t seed, double rate,
                                    double seconds);

/** Nearest-rank percentile (@p q in [0, 100]) of @p values;
 * 0 for an empty sample. */
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** Samples of an @p n-sample set that lie strictly beyond its
 * nearest-rank @p q-th percentile. */
long samplesBeyond(long n, double q);

/**
 * The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50}
 * with at least 10 of @p n samples beyond it; 0 when even the median
 * has fewer than 10 beyond (n < 21).
 */
double tailPercentile(long n);

/** True for names made only of [A-Za-z0-9_.-] (and non-empty). */
bool validMetricName(const std::string &name);

/** True for units of 1-16 characters from [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** End-to-end metrics every untraced run prints (BENCHMARK.json). */
const std::vector<std::string> &endToEndMetricNames();

/** Per-layer metrics every traced run prints (BENCHMARK.json). */
const std::vector<std::string> &perLayerMetricNames();

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    long samples = 0;  //!< sample count behind the figure (0 = n/a)
    std::string note;  //!< e.g. the percentile a tail figure is
};

/**
 * The result line: one JSON object with exactly the
 * keys correct, attempted, failed and metrics. Values keep all their
 * digits (%.17g).
 * @throws std::invalid_argument on an invalid or repeated name.
 */
std::string resultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric> &metrics);

/** Human-readable line: name, value, unit, samples, note. */
std::string metricLine(const Metric &metric);

/**
 * Spans recorded from benchmark code around calls into the program.
 * Kept in memory while the run lasts and written once, at exit, as
 * Chrome trace-event JSON (chrome://tracing, Perfetto). Disabled
 * recorders cost one branch per call.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start_us = 0.0;
        double end_us = 0.0;
        uint64_t id = 0;     //!< request id; spans of one job share it
        uint64_t parent = 0; //!< id of the causing span (0 = none)
        std::string args;    //!< raw JSON object members, may be empty
    };

    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    /** Record [start, end) under @p layer. Thread-safe. */
    void add(const std::string &layer, const std::string &name,
             Clock::time_point start, Clock::time_point end,
             uint64_t id = 0, uint64_t parent = 0,
             std::string args = {});

    /** Write every span as trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // RSU_PERFBENCH_HARNESS_H
