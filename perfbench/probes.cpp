#include "probes.h"

#include <functional>
#include <memory>
#include <string>

#include "mrf/fast_sweep.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

namespace perfbench {

namespace {

namespace mrf = rsu::mrf;
namespace rt = rsu::runtime;
namespace wl = rsu::workload;

constexpr int kReps = 3; //!< timed repetitions per probe (median)

/** Median wall time of @p reps calls of @p fn, in seconds; each call
 * is recorded as a span. */
double
timeMedian(SpanRecorder &spans, const std::string &layer,
           const std::string &name, int reps,
           const std::function<void()> &fn)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        spans.add(layer, name, t0, t1);
        seconds.push_back(secondsSince(t0, t1));
    }
    return median(seconds);
}

wl::InferenceProblem
makeProblem(const std::string &name, int size, int labels, uint64_t seed)
{
    wl::SceneOptions scene;
    scene.width = size;
    scene.height = size;
    scene.labels = labels;
    scene.seed = seed;
    return wl::WorkloadRegistry::builtin().make(name, scene);
}

/** Single-thread GibbsSampler sweep cost on one path (ns/site). */
double
kernelNsPerSite(const wl::InferenceProblem &p, mrf::SweepPath path,
                uint64_t seed, SpanRecorder &spans,
                const std::string &name, mrf::SamplerWork &work)
{
    mrf::GridMrf grid(p.config, *p.singleton);
    grid.initializeMaximumLikelihood();
    mrf::GibbsSampler sampler(grid, seed, mrf::Schedule::Checkerboard,
                              path);
    sampler.sweep(); // first touch of the tables and label field
    const double s =
        timeMedian(spans, "mrf", name, kReps, [&] { sampler.sweep(); });
    const auto &w = sampler.work();
    work.site_updates += w.site_updates;
    work.energy_evals += w.energy_evals;
    work.exp_calls += w.exp_calls;
    work.random_draws += w.random_draws;
    return s * 1e9 / grid.size();
}

/** Median Table-path chromatic sweep time at @p shards shards. */
double
chromaticSweepSeconds(const wl::InferenceProblem &p, rt::ThreadPool &pool,
                      int shards, uint64_t seed,
                      const std::shared_ptr<const mrf::SweepTableSet> &set,
                      SpanRecorder &spans, const std::string &name)
{
    mrf::GridMrf grid(p.config, *p.singleton);
    grid.initializeMaximumLikelihood(set->singleton());
    rt::ParallelSweepExecutor executor(pool, shards);
    rt::ChromaticGibbsSampler sampler(grid, executor, seed,
                                      rt::SamplerKind::SoftwareGibbs, {},
                                      mrf::SweepPath::Table, set);
    sampler.sweep();
    return timeMedian(spans, "executor", name, kReps,
                      [&] { sampler.sweep(); });
}

double
scalingEfficiency(const wl::InferenceProblem &p, rt::ThreadPool &pool,
                  uint64_t seed, SpanRecorder &spans,
                  const std::string &name)
{
    const auto set = std::make_shared<const mrf::SweepTableSet>(
        mrf::GridMrf(p.config, *p.singleton),
        rt::parallelRowRunner(pool));
    const int s = pool.size();
    const double t1 = chromaticSweepSeconds(p, pool, 1, seed, set, spans,
                                            name + ".shards1");
    const double ts = chromaticSweepSeconds(
        p, pool, s, seed, set, spans, name + ".shards" + std::to_string(s));
    return t1 / (s * ts);
}

} // namespace

std::vector<Metric>
runLayerProbes(uint64_t seed, int threads, SpanRecorder &spans)
{
    std::vector<Metric> out;
    rt::ThreadPool pool(threads);

    const auto seg = makeProblem("segmentation", 1024, 5,
                                 deriveSeed(seed, 901));
    const auto motion = makeProblem("motion", 512, 49,
                                    deriveSeed(seed, 902));
    const uint64_t chain = deriveSeed(seed, 903);

    // mrf: single-thread kernels, table builds, ML init, energy scans.
    mrf::SamplerWork work;
    struct Model
    {
        const wl::InferenceProblem *problem;
        const char *tag;
    };
    for (const Model &m : {Model{&seg, "m5"}, Model{&motion, "m49"}}) {
        const std::string tag = m.tag;
        for (auto [path, pname] :
             {std::pair{mrf::SweepPath::Table, "table"},
              std::pair{mrf::SweepPath::Simd, "simd"}}) {
            const std::string name =
                std::string("mrf.ns_per_site.") + pname + "." + tag;
            out.push_back({name,
                           kernelNsPerSite(*m.problem, path, chain, spans,
                                           name, work),
                           "ns", kReps, "single-thread GibbsSampler"});
        }

        mrf::GridMrf grid(m.problem->config, *m.problem->singleton);
        std::unique_ptr<mrf::SweepTableSet> set;
        const double build = timeMedian(
            spans, "mrf", "SweepTableSet", kReps, [&] {
                set = std::make_unique<mrf::SweepTableSet>(
                    grid, rt::parallelRowRunner(pool));
            });
        out.push_back({"mrf.table_build_ms." + tag, build * 1e3, "ms",
                       kReps, "parallelRowRunner"});
        // Bytes one site update streams from memory: its singleton
        // row (padded uint16 energies) plus its label byte; the
        // doubleton and exp tables stay cache-resident. Computed from
        // the table sizes, not measured.
        const double bytes =
            static_cast<double>(set->paddedLabels()) * sizeof(uint16_t) +
            sizeof(mrf::Label);
        out.push_back({"mrf.bytes_per_site." + tag, bytes, "B", 0,
                       "computed from table sizes"});
        const double init = timeMedian(
            spans, "mrf", "initializeMaximumLikelihood", kReps,
            [&] { grid.initializeMaximumLikelihood(set->singleton()); });
        out.push_back({"mrf.ml_init_ms." + tag, init * 1e3, "ms", kReps,
                       "from the singleton table"});
        const double scan = timeMedian(spans, "mrf", "totalEnergy", kReps,
                                       [&] { (void)grid.totalEnergy(); });
        out.push_back({"mrf.total_energy_ms." + tag, scan * 1e3, "ms",
                       kReps, ""});
    }
    out.push_back({"mrf.site_updates", double(work.site_updates), "count",
                   0, "probe sweeps, exact"});
    out.push_back({"mrf.energy_evals", double(work.energy_evals), "count",
                   0, "probe sweeps, exact"});
    out.push_back({"mrf.exp_calls", double(work.exp_calls), "count", 0,
                   "probe sweeps, exact"});
    out.push_back({"mrf.random_draws", double(work.random_draws), "count",
                   0, "probe sweeps, exact"});

    // executor: chromatic Table sweeps at 1 vs pool-size shards.
    out.push_back({"executor.scaling_eff.seg1024",
                   scalingEfficiency(seg, pool, chain, spans,
                                     "chromatic.seg1024"),
                   "frac", kReps,
                   "t1 / (S * tS), S = " + std::to_string(pool.size())});
    out.push_back({"executor.scaling_eff.motion512",
                   scalingEfficiency(motion, pool, chain, spans,
                                     "chromatic.motion512"),
                   "frac", kReps,
                   "t1 / (S * tS), S = " + std::to_string(pool.size())});

    // The 128^2 serve_mix problems at 1 vs 2 shards (serve_mix runs
    // two shards per job).
    std::vector<wl::InferenceProblem> small;
    small.push_back(makeProblem("segmentation", 128, 5,
                                deriveSeed(seed, 911)));
    small.push_back(makeProblem("stereo", 128, 0, deriveSeed(seed, 912)));
    small.push_back(makeProblem("denoise", 128, 0, deriveSeed(seed, 913)));
    small.push_back(makeProblem("motion", 128, 49, deriveSeed(seed, 914)));
    double one = 0.0;
    double two = 0.0;
    for (const auto &p : small) {
        const auto set = std::make_shared<const mrf::SweepTableSet>(
            mrf::GridMrf(p.config, *p.singleton));
        one += chromaticSweepSeconds(p, pool, 1, chain, set, spans,
                                     "chromatic." + p.workload + ".s1");
        two += chromaticSweepSeconds(p, pool, 2, chain, set, spans,
                                     "chromatic." + p.workload + ".s2");
    }
    out.push_back({"executor.small_speedup.s128", one / two, "x", kReps,
                   "sum of 1-shard / 2-shard sweep times"});

    // rsu: emulated RSU-G chromatic sweeps on the 128^2 segmentation
    // and motion problems (the rsu_device jobs' shape).
    rsu::core::RsuGStats device;
    double phase_seconds = 0.0;
    for (const auto *p : {&small[0], &small[3]}) {
        mrf::GridMrf grid(p->config, *p->singleton);
        grid.initializeMaximumLikelihood();
        rt::ParallelSweepExecutor executor(pool, pool.size());
        rt::ChromaticGibbsSampler sampler(grid, executor, chain,
                                          rt::SamplerKind::RsuGibbs);
        timeMedian(spans, "rsu", "rsu_sweep." + p->workload, kReps,
                   [&] { sampler.sweep(); });
        device += sampler.deviceStats();
        phase_seconds += executor.timing().total();
    }
    const double evals = static_cast<double>(device.label_evals);
    const double cycles =
        static_cast<double>(device.issue_cycles + device.stall_cycles);
    out.push_back({"rsu.host_ns_per_label_eval",
                   evals > 0 ? phase_seconds * 1e9 / evals : 0.0, "ns",
                   kReps, "phase time / label_evals"});
    out.push_back({"rsu.stall_frac",
                   cycles > 0 ? device.stall_cycles / cycles : 0.0, "frac",
                   0, "simulated, exact"});
    out.push_back({"rsu.misfire_frac", device.misfireFraction(), "frac", 0,
                   "simulated, exact"});
    out.push_back({"rsu.label_evals", evals, "count", 0,
                   "simulated, exact"});
    return out;
}

} // namespace perfbench
