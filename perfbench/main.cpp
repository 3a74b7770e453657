// The repository benchmark: drives InferenceEngine from outside, as a
// caller would, on one of two named workloads, checks every output,
// and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). The last line of stdout is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--corrupt-label]
//
// Exit codes: 0 success, 1 a correctness check failed (the result
// line still prints, with "correct": false), 2 bad usage or an error
// before any result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.h"
#include "harness.h"
#include "mrf/grid_mrf.h"
#include "probes.h"
#include "runtime/inference_engine.h"
#include "workload/registry.h"

namespace {

namespace pb = perfbench;
namespace mrf = rsu::mrf;
namespace rt = rsu::runtime;
namespace wl = rsu::workload;
using pb::Clock;

// ---------------------------------------------------------------- inputs

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    bool corrupt_label = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_mix|rsu_device --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--corrupt-label]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (flag == "--trace-out")
                a.trace_out = value();
            else if (flag == "--corrupt-label")
                a.corrupt_label = true;
            else
                usage("unknown argument " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

/** Everything that fixes one job's labels: inputs only, never the
 * host (shards is always explicit). */
struct JobSpec
{
    int model = 0;
    mrf::SweepPath path = mrf::SweepPath::Table;
    rt::SamplerKind kind = rt::SamplerKind::SoftwareGibbs;
    int sweeps = 30;
    bool anneal = false;
    int shards = 1;
    uint64_t seed = 1;
};

/** True when the engine looks up @p spec's tables in its cache. */
bool
usesTableCache(const JobSpec &spec)
{
    return spec.kind == rt::SamplerKind::SoftwareGibbs &&
           spec.path != mrf::SweepPath::Reference;
}

/** Job indices of window (stream) s are s * kStreamStride + 0, 1, ... */
constexpr long kStreamStride = 1000000;

/** Generates one problem: registry name, lattice side, labels, seed. */
using MakeFn = std::function<wl::InferenceProblem(
    const std::string &, int, int, uint64_t)>;

/** latency_p50_ms is the median over this many consecutive
 * sub-windows of the run (by scheduled send) of each sub-window's
 * median: a host slow phase that covers fewer than half of them does
 * not move the figure. */
constexpr int kSubwindows = 5;

/** A named workload: how its inputs are made and how load arrives. */
struct Workload
{
    bool open_loop = false;
    double rate = 0.0;   //!< open loop: Poisson arrivals per second
    int cycle = 1;       //!< closed loop: stop only at multiples of this
    double slo_ms = 0.0; //!< latency limit for slo_met_frac
    /** Quality is the mean over the window's first this-many jobs
     * (0 = all). A closed loop completes a host-dependent number of
     * jobs; a fixed prefix keeps quality a function of the seed. */
    long quality_jobs = 0;
    int resubmit = 2;      //!< jobs re-run for the hash check
    int direct_sweeps = 0; //!< sweeps of the solveDirect check jobs
    std::function<std::vector<wl::InferenceProblem>(uint64_t, const MakeFn &)>
        models;
    std::function<JobSpec(long, uint64_t)> job;
};

Workload
workloadByName(const std::string &name)
{
    Workload w;
    if (name == "serve_mix") {
        // Small jobs: admission, dispatch, fork/join on small row
        // bands, ML init, energy probes and the quality hook set
        // latency; the table cache only serves hits.
        w.open_loop = true;
        w.rate = 22.0; // about half of closed-loop capacity (README.md)
        w.slo_ms = 250.0;
        w.resubmit = 8;
        w.direct_sweeps = 30;
        w.models = [](uint64_t seed, const MakeFn &make) {
            // Four scenes per family (quality is a mean over scenes);
            // 16 models fill the cache without evictions.
            std::vector<wl::InferenceProblem> m;
            const char *names[] = {"segmentation", "stereo", "denoise",
                                   "motion"};
            const int labels[] = {5, 0, 0, 49};
            for (int k = 0; k < 16; ++k)
                m.push_back(make(names[k % 4], 128, labels[k % 4],
                                  pb::deriveSeed(seed, 100 + k)));
            return m;
        };
        w.job = [](long i, uint64_t seed) {
            JobSpec s;
            s.model = static_cast<int>(i % 16);
            s.sweeps = 30;
            s.anneal = i % 3 == 2;
            s.shards = 2;
            s.seed = pb::deriveSeed(seed, 10000 + i);
            return s;
        };
    } else if (name == "rsu_device") {
        // The emulated device race is ~90% of each job; software
        // kernels and the table cache do nothing.
        w.cycle = 2;
        w.slo_ms = 5000.0;
        w.quality_jobs = 96;
        w.resubmit = 2;
        w.models = [](uint64_t seed, const MakeFn &make) {
            // Four scenes per family: quality is a mean over scenes.
            std::vector<wl::InferenceProblem> m;
            for (int k = 0; k < 8; ++k)
                m.push_back(make(k % 2 ? "motion" : "segmentation", 128,
                                  k % 2 ? 49 : 5,
                                  pb::deriveSeed(seed, 400 + k)));
            return m;
        };
        w.job = [](long i, uint64_t seed) {
            // 20 segmentation sweeps take about as long as 4 motion
            // sweeps (M = 49 candidates race per site).
            JobSpec s;
            s.model = static_cast<int>(i % 8);
            s.kind = rt::SamplerKind::RsuGibbs;
            s.sweeps = i % 2 == 0 ? 20 : 4;
            s.shards = 4;
            s.seed = pb::deriveSeed(seed, 40000 + i);
            return s;
        };
    } else {
        usage("unknown workload '" + name + "'");
    }
    return w;
}

// ------------------------------------------------------------- checking

/** Lowest acceptable solution quality, per metric (see README.md). */
bool
qualityAcceptable(const std::string &metric, double value)
{
    // Well clear of a random labelling (accuracy ~0.2, mean endpoint
    // error ~2.8 px, PSNR ~7 dB) and below every workload's figure.
    if (metric == "accuracy")
        return value >= 0.5;
    if (metric == "epe_px")
        return value <= 2.5;
    if (metric == "psnr_db")
        return value >= 15.0;
    return false;
}

uint64_t
labelHash(const std::vector<mrf::Label> &labels)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (mrf::Label l : labels) {
        h ^= l;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Empty when @p result is a correct, complete answer to @p model's
 * problem; otherwise the first reason it is not. Quality floors apply
 * when @p floors is set (not to one-sweep warm-up jobs). */
std::string
checkResult(const wl::InferenceProblem &p, const rt::InferenceResult &result,
            bool floors)
{
    if (result.outcome != rt::JobOutcome::Completed)
        return "outcome not Completed";
    if (static_cast<int>(result.labels.size()) !=
        p.config.width * p.config.height)
        return "label count mismatch";
    mrf::GridMrf grid(p.config, *p.singleton);
    std::bitset<256> valid;
    for (mrf::Label code : grid.labelCodes())
        valid.set(code);
    for (mrf::Label l : result.labels)
        if (!valid.test(l))
            return "label out of range";
    grid.setLabels(result.labels);
    if (grid.totalEnergy() != result.final_energy)
        return "final_energy differs from totalEnergy() of the labels";
    if (!result.quality_error.empty())
        return "quality hook failed: " + result.quality_error;
    if (!result.quality)
        return "no quality value";
    if (floors && !qualityAcceptable(result.quality_metric, *result.quality))
        return "quality " + result.quality_metric + " = " +
               std::to_string(*result.quality) + " below its floor";
    return {};
}

// ------------------------------------------------------------ running

/** What the benchmark observed about one job. */
struct JobRecord
{
    long index = 0;
    JobSpec spec;
    double sched = 0.0; //!< scheduled send, s from window start
    double send = 0.0;  //!< submit() entered
    double sent = 0.0;  //!< submit() returned
    double ready = 0.0; //!< future observed ready
    int pending_at_send = 0;
    bool ok = false;
    std::string error;
    double elapsed = 0.0;
    double table_build = 0.0;
    bool table_lookup = false;
    bool table_hit = false;
    double phase_total = 0.0;
    int sweeps_run = 0;
    mrf::SamplerWork work;
    std::string quality_metric;
    double quality = 0.0;
    double quality_ms = -1.0;
    uint64_t hash = 0;
};

struct Context
{
    Args args;
    Workload workload;
    int threads = 1;
    std::vector<wl::InferenceProblem> models;
    std::unique_ptr<rt::InferenceEngine> engine;
    std::unique_ptr<pb::SpanRecorder> spans;
    std::atomic<bool> corrupt_pending{false};
    std::atomic<uint64_t> next_id{1};
    std::vector<double> make_ms; //!< every WorkloadRegistry::make call
    std::atomic<std::size_t> heap_peak{0}; //!< see noteHeap()
};

/**
 * Raise ctx.heap_peak to the bytes malloc has handed out and not taken
 * back, summed over all arenas (glibc mallinfo2: in-use chunks plus
 * mmapped blocks). Unlike resident pages, this does not depend on how
 * many per-thread arenas the run happened to create.
 */
void
noteHeap(Context &ctx)
{
    const struct mallinfo2 mi = mallinfo2();
    const std::size_t now = mi.uordblks + mi.hblkhd;
    std::size_t peak = ctx.heap_peak.load();
    while (now > peak && !ctx.heap_peak.compare_exchange_weak(peak, now)) {
    }
}

rt::InferenceJob
buildJob(Context &ctx, const JobSpec &spec,
         std::shared_ptr<double> quality_ms)
{
    wl::SubmitOptions opts;
    opts.sweeps = spec.sweeps;
    opts.anneal = spec.anneal;
    opts.sweep_path = spec.path;
    opts.seed = spec.seed;
    opts.shards = spec.shards;
    rt::InferenceJob job = wl::makeJob(ctx.models[spec.model], opts);
    job.sampler = spec.kind;
    if (quality_ms && job.quality) {
        // Time the quality closure where it runs, on the dispatcher.
        auto inner = std::move(job.quality);
        job.quality = [inner, quality_ms](
                          const std::vector<mrf::Label> &labels) {
            const auto t0 = Clock::now();
            const double q = inner(labels);
            *quality_ms = pb::secondsSince(t0, Clock::now()) * 1e3;
            return q;
        };
    }
    return job;
}

/** Resolve @p future into @p rec: result fields, checks, hash. */
void
finishJob(Context &ctx, JobRecord &rec,
          std::future<rt::InferenceResult> &future,
          const std::shared_ptr<double> &quality_ms, bool floors = true)
{
    try {
        rt::InferenceResult r = future.get();
        noteHeap(ctx); // the result and up to two running jobs are live
        if (ctx.corrupt_pending.exchange(false) && !r.labels.empty())
            r.labels[0] ^= 0x80;
        rec.elapsed = r.elapsed_seconds;
        rec.table_build = r.table_build_seconds;
        rec.table_lookup = usesTableCache(rec.spec);
        rec.table_hit = r.table_cache_hit;
        rec.phase_total = r.phase_timing.total();
        rec.sweeps_run = r.sweeps_run;
        rec.work = r.work;
        rec.quality_metric = r.quality_metric;
        rec.quality = r.quality.value_or(0.0);
        rec.hash = labelHash(r.labels);
        rec.error = checkResult(ctx.models[rec.spec.model], r, floors);
        rec.ok = rec.error.empty();
    } catch (const rt::EngineError &e) {
        rec.error = std::string("EngineError ") + e.what();
    } catch (const std::exception &e) {
        rec.error = std::string("exception ") + e.what();
    }
    if (quality_ms)
        rec.quality_ms = *quality_ms;
}

void
traceJob(Context &ctx, const JobRecord &rec, Clock::time_point origin)
{
    if (!ctx.spans->enabled())
        return;
    const auto at = [&](double s) {
        return origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
    };
    const uint64_t id = ctx.next_id.fetch_add(1);
    ctx.spans->add("engine", "submit", at(rec.send), at(rec.sent), id);
    char args[512];
    std::snprintf(args, sizeof args,
                  "\"elapsed_s\": %.9g, \"table_build_s\": %.9g, "
                  "\"table_hit\": %s, \"phase_s\": %.9g, \"sweeps\": %d, "
                  "\"site_updates\": %llu, \"quality_ms\": %.6g, "
                  "\"ok\": %s",
                  rec.elapsed, rec.table_build,
                  rec.table_hit ? "true" : "false", rec.phase_total,
                  rec.sweeps_run,
                  static_cast<unsigned long long>(rec.work.site_updates),
                  rec.quality_ms, rec.ok ? "true" : "false");
    ctx.spans->add("engine", "job", at(rec.sched), at(rec.ready), id, 0,
                   args);
}

/** One measured stretch of load. */
struct Window
{
    std::vector<JobRecord> records;
    double wall = 0.0; //!< window start to last ready, s
    rt::TableCacheStats cache_before;
    rt::TableCacheStats cache_after;
};

JobRecord
submitOne(Context &ctx, long index, const JobSpec &spec,
          Clock::time_point origin, double sched,
          std::future<rt::InferenceResult> &future,
          std::shared_ptr<double> &quality_ms)
{
    JobRecord rec;
    rec.index = index;
    rec.spec = spec;
    rec.sched = sched;
    if (ctx.spans->enabled())
        quality_ms = std::make_shared<double>(-1.0);
    rt::InferenceJob job = buildJob(ctx, spec, quality_ms);
    rec.pending_at_send = ctx.engine->pendingJobs();
    rec.send = pb::secondsSince(origin, Clock::now());
    try {
        future = ctx.engine->submit(std::move(job)).future;
    } catch (const std::exception &e) {
        rec.error = std::string("submit refused: ") + e.what();
    }
    rec.sent = pb::secondsSince(origin, Clock::now());
    return rec;
}

Window
runOpenLoop(Context &ctx, double seconds, uint64_t stream)
{
    Window w;
    const auto schedule = pb::arrivalSchedule(
        pb::deriveSeed(ctx.args.seed, stream), ctx.workload.rate, seconds);
    w.records.resize(schedule.size());

    struct Pending
    {
        std::size_t slot;
        std::future<rt::InferenceResult> future;
        std::shared_ptr<double> quality_ms;
    };
    std::mutex inbox_mutex;
    std::vector<Pending> inbox; // guarded by inbox_mutex
    bool sending = true;        // guarded by inbox_mutex

    w.cache_before = ctx.engine->tableCacheStats();
    const auto origin = Clock::now();
    // One collector polls every outstanding future, so jobs are timed
    // in the order they finish (no head-of-line wait on the oldest),
    // to within the 100 us poll interval. It stamps every ready job of
    // a pass before checking any of them.
    std::thread collector([&] {
        std::vector<Pending> pending;
        for (bool last = false; !last;) {
            {
                std::lock_guard<std::mutex> lock(inbox_mutex);
                for (auto &p : inbox)
                    pending.push_back(std::move(p));
                inbox.clear();
                last = !sending;
            }
            std::vector<Pending> ready;
            std::vector<Pending> waiting;
            for (auto &p : pending) {
                if (p.future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    w.records[p.slot].ready =
                        pb::secondsSince(origin, Clock::now());
                    ready.push_back(std::move(p));
                } else {
                    waiting.push_back(std::move(p));
                }
            }
            pending = std::move(waiting);
            for (auto &p : ready) {
                finishJob(ctx, w.records[p.slot], p.future, p.quality_ms);
                traceJob(ctx, w.records[p.slot], origin);
            }
            last = last && pending.empty();
            if (!last)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    for (std::size_t i = 0; i < schedule.size(); ++i) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule[i])));
        const long index = static_cast<long>(stream * kStreamStride + i);
        Pending p{i, {}, {}};
        JobRecord rec =
            submitOne(ctx, index, ctx.workload.job(index, ctx.args.seed),
                      origin, schedule[i], p.future, p.quality_ms);
        if (!p.future.valid())
            rec.ready = rec.sent;
        std::lock_guard<std::mutex> lock(inbox_mutex);
        w.records[i] = std::move(rec);
        if (p.future.valid())
            inbox.push_back(std::move(p));
    }
    {
        std::lock_guard<std::mutex> lock(inbox_mutex);
        sending = false;
    }
    collector.join();
    for (const auto &r : w.records)
        w.wall = std::max(w.wall, r.ready);
    w.cache_after = ctx.engine->tableCacheStats();
    return w;
}

/** One client, one job in flight: the next job is sent when the
 * previous one is ready. */
Window
runClosedLoop(Context &ctx, double seconds, uint64_t stream)
{
    Window w;
    // deque: records keep their address while the checker fills them in.
    std::deque<JobRecord> records;
    w.cache_before = ctx.engine->tableCacheStats();
    const auto origin = Clock::now();
    const long base = static_cast<long>(stream * kStreamStride);
    // Checking a reply is the caller's own work: it runs beside the
    // next job instead of delaying its send.
    std::thread checker;
    double sched = 0.0;
    for (long i = 0; pb::secondsSince(origin, Clock::now()) < seconds ||
                     i % ctx.workload.cycle != 0;
         ++i) {
        std::future<rt::InferenceResult> future;
        std::shared_ptr<double> quality_ms;
        records.push_back(submitOne(
            ctx, base + i, ctx.workload.job(base + i, ctx.args.seed), origin,
            sched, future, quality_ms));
        JobRecord &rec = records.back();
        if (future.valid())
            future.wait();
        rec.ready = pb::secondsSince(origin, Clock::now());
        sched = rec.ready;
        if (checker.joinable())
            checker.join();
        if (future.valid())
            checker = std::thread([&ctx, &rec, origin,
                                   future = std::move(future),
                                   quality_ms]() mutable {
                finishJob(ctx, rec, future, quality_ms);
                traceJob(ctx, rec, origin);
            });
    }
    if (checker.joinable())
        checker.join();
    for (auto &r : records) {
        w.wall = std::max(w.wall, r.ready);
        w.records.push_back(std::move(r));
    }
    w.cache_after = ctx.engine->tableCacheStats();
    return w;
}

Window
runWindow(Context &ctx, double seconds, uint64_t stream)
{
    return ctx.workload.open_loop ? runOpenLoop(ctx, seconds, stream)
                                  : runClosedLoop(ctx, seconds, stream);
}

/** Build models and engine, and warm the table cache. */
double
setUp(Context &ctx, std::vector<JobRecord> &warmup)
{
    // Tear down the previous set-up first: that is not set-up work,
    // and a set-up never holds two model sets.
    ctx.engine.reset();
    ctx.models.clear();
    const auto t0 = Clock::now();
    const MakeFn make = [&ctx](const std::string &name, int size,
                               int labels, uint64_t seed) {
        wl::SceneOptions scene;
        scene.width = size;
        scene.height = size;
        scene.labels = labels;
        scene.seed = seed;
        const auto start = Clock::now();
        auto problem = wl::WorkloadRegistry::builtin().make(name, scene);
        const auto end = Clock::now();
        ctx.make_ms.push_back(pb::secondsSince(start, end) * 1e3);
        ctx.spans->add("workload", "make." + name, start, end);
        return problem;
    };
    ctx.models = ctx.workload.models(ctx.args.seed, make);
    rt::EngineOptions options;
    options.threads = ctx.threads;
    options.max_concurrent_jobs = 2;
    ctx.engine = std::make_unique<rt::InferenceEngine>(options);
    warmup.clear();
    // One short job, with the workload's own job shape, per model whose
    // jobs use the table cache. Other jobs have nothing to warm.
    for (std::size_t m = 0; m < ctx.models.size(); ++m) {
        JobSpec spec = ctx.workload.job(static_cast<long>(m), ctx.args.seed);
        if (!usesTableCache(spec))
            continue;
        spec.model = static_cast<int>(m);
        spec.sweeps = 1;
        spec.anneal = false;
        std::future<rt::InferenceResult> future;
        std::shared_ptr<double> quality_ms;
        JobRecord rec = submitOne(ctx, -1 - static_cast<long>(m), spec, t0,
                                  0.0, future, quality_ms);
        if (future.valid())
            finishJob(ctx, rec, future, quality_ms, false);
        warmup.push_back(rec);
    }
    const double s = pb::secondsSince(t0, Clock::now());
    ctx.spans->add("benchmark", "setup", t0, Clock::now());
    return s;
}

double
peakRssMib()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------- metrics

struct Summary
{
    long attempted = 0;
    long failed = 0;
    long completed = 0;
    std::vector<double> latency_ms;
    double slo_frac = 0.0;
    double jobs_per_s = 0.0;
    double msites_per_s = 0.0;
    std::map<std::string, std::pair<double, long>> quality; // sum, n
};

Summary
summarize(const Context &ctx, const Window &w)
{
    Summary s;
    uint64_t sites = 0;
    long met = 0;
    for (const auto &r : w.records) {
        ++s.attempted;
        if (!r.ok) {
            ++s.failed;
            continue;
        }
        ++s.completed;
        const double ms = (r.ready - r.sched) * 1e3;
        s.latency_ms.push_back(ms);
        met += ms <= ctx.workload.slo_ms;
        sites += r.work.site_updates;
        if (ctx.workload.quality_jobs == 0 ||
            r.index % kStreamStride < ctx.workload.quality_jobs) {
            auto &q = s.quality[r.quality_metric];
            q.first += r.quality;
            ++q.second;
        }
    }
    s.slo_frac = s.attempted ? double(met) / s.attempted : 0.0;
    s.jobs_per_s = w.wall > 0 ? s.completed / w.wall : 0.0;
    s.msites_per_s = w.wall > 0 ? sites / w.wall / 1e6 : 0.0;
    return s;
}

double
qualityMean(const Summary &s, const std::string &metric, long *n)
{
    const auto it = s.quality.find(metric);
    if (it == s.quality.end() || it->second.second == 0) {
        *n = 0;
        return 0.0;
    }
    *n = it->second.second;
    return it->second.first / it->second.second;
}

std::vector<pb::Metric>
endToEnd(const Context &ctx, const Window &w, double seconds,
         const Summary &s, const std::vector<double> &setup_s)
{
    const long n = static_cast<long>(s.latency_ms.size());
    std::vector<std::vector<double>> parts(kSubwindows);
    for (const auto &r : w.records)
        if (r.ok)
            parts[std::clamp(static_cast<int>(r.sched / seconds *
                                              kSubwindows),
                             0, kSubwindows - 1)]
                .push_back((r.ready - r.sched) * 1e3);
    std::vector<double> p50s;
    for (const auto &part : parts)
        if (!part.empty())
            p50s.push_back(pb::median(part));
    // The tail is taken over the whole run, so a slow stretch in any
    // part of it shows.
    double q = pb::tailPercentile(n);
    if (q == 0.0) {
        q = 50.0;
        std::fprintf(stderr,
                     "perfbench: only %ld completed jobs; the tail falls "
                     "back to p50\n",
                     n);
    }
    char p50_note[64];
    std::snprintf(p50_note, sizeof p50_note,
                  "median of %d sub-window medians", kSubwindows);
    char note[64];
    std::snprintf(note, sizeof note, "p%g of the run, %ld beyond", q,
                  pb::samplesBeyond(n, q));
    // An open loop completes the jobs its schedule offers: throughput
    // only shows that the engine kept up.
    const std::string offered =
        ctx.workload.open_loop ? "set by the arrival schedule" : "";
    long n_acc = 0;
    long n_epe = 0;
    const double acc = qualityMean(s, "accuracy", &n_acc);
    const double epe = qualityMean(s, "epe_px", &n_epe);
    return {
        {"latency_p50_ms", pb::median(p50s), "ms", n, p50_note},
        {"latency_tail_ms", pb::percentile(s.latency_ms, q), "ms", n, note},
        {"slo_met_frac", s.slo_frac, "frac", s.attempted,
         "Completed within " + std::to_string(int(ctx.workload.slo_ms)) +
             " ms"},
        {"jobs_per_s", s.jobs_per_s, "1/s", s.completed, offered},
        {"msites_per_s", s.msites_per_s, "Msites/s", s.completed, offered},
        {"quality_accuracy", acc, "frac", n_acc, "mean over completed"},
        {"quality_epe_px", epe, "px", n_epe, "mean over completed"},
        {"setup_s", pb::median(setup_s), "s",
         static_cast<long>(setup_s.size()), "median of set-ups"},
        {"peak_heap_mib", double(ctx.heap_peak.load()) / (1 << 20), "MiB",
         s.completed, "mallinfo2 in use, at each job's result"},
    };
}

std::vector<pb::Metric>
perLayer(const Context &ctx, const Window &untraced, const Window &traced,
         const std::vector<JobRecord> &warmup,
         const std::vector<double> &make_ms, std::vector<pb::Metric> probes)
{
    std::vector<double> submit_us, outside_ms, run_ms, build_ms, sweep_ms,
        quality_ms, lag_ms;
    double pending_max = 0.0, elapsed_sum = 0.0, overhead_sum = 0.0;
    const auto build = [&](const JobRecord &r) {
        if (r.ok && r.table_lookup && !r.table_hit)
            build_ms.push_back(r.table_build * 1e3);
    };
    for (const auto &r : warmup)
        build(r);
    for (const auto &r : traced.records) {
        build(r);
        submit_us.push_back((r.sent - r.send) * 1e6);
        lag_ms.push_back((r.send - r.sched) * 1e3);
        pending_max = std::max(pending_max, double(r.pending_at_send));
        if (!r.ok)
            continue;
        outside_ms.push_back(((r.ready - r.send) - r.elapsed) * 1e3);
        run_ms.push_back(r.elapsed * 1e3);
        if (r.sweeps_run > 0)
            sweep_ms.push_back(r.phase_total / r.sweeps_run * 1e3);
        if (r.quality_ms >= 0)
            quality_ms.push_back(r.quality_ms);
        elapsed_sum += r.elapsed;
        overhead_sum += r.elapsed - r.table_build - r.phase_total;
    }
    const auto &c0 = traced.cache_before;
    const auto &c1 = traced.cache_after;
    const double lookups = double(c1.hits + c1.misses - c0.hits - c0.misses);
    const long n = static_cast<long>(traced.records.size());
    const Summary su = summarize(ctx, untraced);
    const Summary st = summarize(ctx, traced);

    std::vector<pb::Metric> out = {
        {"workload.make_ms", pb::median(make_ms), "ms",
         static_cast<long>(make_ms.size()), "WorkloadRegistry::make"},
        {"engine.submit_us_p50", pb::median(submit_us), "us", n, ""},
        {"engine.submit_us_p99", pb::percentile(submit_us, 99), "us", n, ""},
        {"engine.outside_run_ms_p50", pb::median(outside_ms), "ms",
         long(outside_ms.size()), "(ready - send) - elapsed"},
        {"engine.outside_run_ms_p99", pb::percentile(outside_ms, 99), "ms",
         long(outside_ms.size()), ""},
        {"engine.run_ms_p50", pb::median(run_ms), "ms", long(run_ms.size()),
         "elapsed_seconds"},
        {"engine.pending_max", pending_max, "count", n,
         "pendingJobs() at each send"},
        {"engine.table_hit_frac",
         lookups > 0 ? double(c1.hits - c0.hits) / lookups : 0.0, "frac",
         long(lookups), "0 when no job uses tables"},
        {"engine.table_build_ms_p50", pb::median(build_ms), "ms",
         long(build_ms.size()), "misses, set-up included"},
        {"engine.job_overhead_frac",
         elapsed_sum > 0 ? overhead_sum / elapsed_sum : 0.0, "frac",
         long(run_ms.size()), "(elapsed - build - phases) / elapsed"},
        {"executor.sweep_ms_p50", pb::median(sweep_ms), "ms",
         long(sweep_ms.size()), "phase_timing.total() / sweeps"},
        {"vision.quality_ms", pb::median(quality_ms), "ms",
         long(quality_ms.size()), "wrapped quality closure"},
        {"loadgen.lag_ms_p99", pb::percentile(lag_ms, 99), "ms", n,
         "actual - scheduled send"},
        {"trace.overhead.latency_p50_ms",
         pb::median(st.latency_ms) - pb::median(su.latency_ms), "ms",
         long(st.latency_ms.size()), "traced - untraced half"},
        {"trace.overhead.jobs_per_s", st.jobs_per_s - su.jobs_per_s, "1/s",
         st.completed, "traced - untraced half"},
    };
    out.insert(out.end(), std::make_move_iterator(probes.begin()),
               std::make_move_iterator(probes.end()));
    return out;
}

/** Sort @p metrics into @p names order and require the same set. */
std::vector<pb::Metric>
inOrder(std::vector<pb::Metric> metrics,
        const std::vector<std::string> &names)
{
    std::vector<pb::Metric> out;
    for (const auto &name : names) {
        const auto it =
            std::find_if(metrics.begin(), metrics.end(),
                         [&](const pb::Metric &m) { return m.name == name; });
        if (it == metrics.end())
            throw std::logic_error("perfbench: metric not produced: " +
                                   name);
        out.push_back(*it);
    }
    if (out.size() != metrics.size())
        throw std::logic_error("perfbench: metric not in the declared list");
    return out;
}

// ----------------------------------------------------- post-run checks

/** Cache self-check; re-run a fixed subset and require identical
 * label hashes; re-run Table specs of up to four models at one shard
 * against workload::solveDirect. Returns the failures. */
std::vector<std::string>
postChecks(Context &ctx, const Window &w, const rt::TableCacheStats &c1,
           const std::vector<JobRecord> &warm)
{
    std::vector<std::string> failures;
    // Check jobs are compared label for label, so quality floors
    // (meant for full-length jobs) do not apply.
    const auto run = [&](const JobSpec &spec) {
        std::future<rt::InferenceResult> future;
        std::shared_ptr<double> none;
        JobRecord rec =
            submitOne(ctx, 0, spec, Clock::now(), 0.0, future, none);
        if (future.valid())
            finishJob(ctx, rec, future, none, false);
        return rec;
    };

    // Cache self-check: @p c1 counts every lookup since the engine was
    // built, i.e. warm-up plus the jobs of @p w.
    long table_jobs = 0;
    for (const auto &r : w.records)
        table_jobs += r.table_lookup;
    for (const auto &r : warm)
        table_jobs += r.table_lookup;
    const long hits = static_cast<long>(c1.hits);
    const long lookups = static_cast<long>(c1.hits + c1.misses);
    const long distinct = static_cast<long>(ctx.models.size());
    if (table_jobs > 0 &&
        (lookups != table_jobs || hits < table_jobs - distinct))
        failures.push_back("table cache: " + std::to_string(hits) +
                           " hits of " + std::to_string(lookups) +
                           " lookups for " + std::to_string(table_jobs) +
                           " table jobs over " + std::to_string(distinct) +
                           " models");

    // Same inputs, same labels.
    int resubmitted = 0;
    for (const auto &r : w.records) {
        if (resubmitted >= ctx.workload.resubmit)
            break;
        if (!r.ok)
            continue;
        ++resubmitted;
        const JobRecord again = run(r.spec);
        if (!again.ok || again.hash != r.hash)
            failures.push_back("re-submitted job " +
                               std::to_string(r.index) + ": " +
                               (again.ok ? "different labels"
                                         : again.error));
    }

    // Engine at one shard == direct sequential sampler (Table path).
    if (ctx.workload.direct_sweeps > 0) {
        std::set<int> done;
        for (const auto &r : w.records) {
            if (r.spec.path != mrf::SweepPath::Table ||
                r.spec.kind != rt::SamplerKind::SoftwareGibbs ||
                done.count(r.spec.model) || done.size() >= 4)
                continue;
            if (r.spec.anneal && r.spec.sweeps > ctx.workload.direct_sweeps)
                continue;
            done.insert(r.spec.model);
            JobSpec spec = r.spec;
            spec.shards = 1;
            spec.sweeps = std::min(spec.sweeps, ctx.workload.direct_sweeps);
            const JobRecord engine = run(spec);
            wl::SubmitOptions opts;
            opts.sweeps = spec.sweeps;
            opts.anneal = spec.anneal;
            opts.sweep_path = spec.path;
            opts.seed = spec.seed;
            const auto direct =
                wl::solveDirect(ctx.models[spec.model], opts);
            if (!engine.ok || engine.hash != labelHash(direct))
                failures.push_back(
                    "engine at 1 shard vs solveDirect on model " +
                    std::to_string(spec.model) + ": " +
                    (engine.ok ? "different labels" : engine.error));
        }
    }
    return failures;
}

int
runBenchmark(const Args &args)
{
    Context ctx;
    ctx.args = args;
    ctx.workload = workloadByName(args.workload);
    ctx.threads = std::min(4, static_cast<int>(
                                  rsu::bench::hardwareConcurrency()));
    const auto origin = Clock::now();
    ctx.spans = std::make_unique<pb::SpanRecorder>(origin);
    ctx.spans->setEnabled(args.trace);

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# nproc=%u pool_threads=%d simd_isa=%s build_type=%s%s\n",
                rsu::bench::hardwareConcurrency(), ctx.threads,
                rsu::core::simdIsaName(rsu::core::activeSimdIsa()),
                rsu::bench::buildType(),
                rsu::bench::releaseBuild() ? "" : " (NOT A RELEASE BUILD)");
    rsu::bench::warnIfNotRelease();

    // Set-up several times; keep the last. The median is setup_s.
    constexpr int kSetups = 7;
    std::vector<double> setup_s;
    std::vector<JobRecord> warmup;
    for (int k = 0; k < kSetups; ++k)
        setup_s.push_back(setUp(ctx, warmup));

    std::vector<std::string> failures;
    for (const auto &r : warmup)
        if (!r.ok)
            failures.push_back("warm-up job failed: " + r.error);

    ctx.corrupt_pending = args.corrupt_label;
    Window measured;
    Window untraced;
    if (args.trace) {
        // Half untraced, half traced: the difference is the tracing
        // overhead; per-layer figures come from the traced half.
        ctx.spans->setEnabled(false);
        untraced = runWindow(ctx, args.seconds / 2, 1);
        ctx.spans->setEnabled(true);
        measured = runWindow(ctx, args.seconds / 2, 2);
    } else {
        measured = runWindow(ctx, args.seconds, 1);
    }
    const double rss = peakRssMib();
    std::printf("%s\n", pb::metricLine({"peak_rss_mib", rss, "MiB", 1,
                                        "ru_maxrss, malloc defaults"})
                            .c_str());

    Window all = measured;
    all.records.insert(all.records.end(), untraced.records.begin(),
                       untraced.records.end());
    for (const auto &r : all.records)
        if (!r.ok && failures.size() < 20)
            failures.push_back("job " + std::to_string(r.index) + ": " +
                               r.error);
    const auto checks = postChecks(ctx, all, measured.cache_after, warmup);
    failures.insert(failures.end(), checks.begin(), checks.end());

    const Summary s = summarize(ctx, all);
    std::printf("# attempted=%ld completed=%ld failed=%ld\n", s.attempted,
                s.completed, s.failed);
    std::printf("%s\n", pb::metricLine({"error_frac",
                                        s.attempted ? double(s.failed) /
                                                          s.attempted
                                                    : 0.0,
                                        "frac", s.attempted, ""})
                            .c_str());
    long n_psnr = 0;
    const double psnr = qualityMean(s, "psnr_db", &n_psnr);
    if (n_psnr > 0)
        std::printf("%s\n", pb::metricLine({"quality_psnr_db", psnr, "dB",
                                            n_psnr, "mean over completed"})
                                .c_str());

    std::vector<pb::Metric> metrics;
    if (args.trace) {
        metrics = perLayer(ctx, untraced, measured, warmup, ctx.make_ms,
                           pb::runLayerProbes(args.seed, ctx.threads,
                                              *ctx.spans));
        metrics = inOrder(std::move(metrics), pb::perLayerMetricNames());
    } else {
        metrics = inOrder(endToEnd(ctx, measured, args.seconds,
                                   summarize(ctx, measured), setup_s),
                          pb::endToEndMetricNames());
    }
    for (const auto &m : metrics)
        std::printf("%s\n", pb::metricLine(m).c_str());

    for (const auto &f : failures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    const bool correct = failures.empty() && s.failed == 0;
    std::printf("# correctness: %s\n", correct ? "ok" : "FAIL");

    if (args.trace && !args.trace_out.empty() &&
        !ctx.spans->write(args.trace_out))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     args.trace_out.c_str());

    std::printf("%s\n",
                pb::resultJson(correct, s.attempted, s.failed, metrics)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
