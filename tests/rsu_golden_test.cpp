/**
 * @file
 * Golden label hashes for the emulated RSU-G sweep path.
 *
 * Every other RSU identity test is relative (chromatic vs
 * sequential, Isa vs Direct): both sides run the same site kernel,
 * so a change to how that kernel consumes device entropy moves both
 * and passes. These tests pin absolute results instead — a hash of
 * the final label field and of the device's occupancy and health
 * counters — for the configurations the kernel branches on: scalar
 * and vector (stride-8) label codes, one and several shards, a
 * faulted unit (the re-race path), two-pass min re-referencing, a
 * wide unit, and an annealed engine job.
 *
 * The hashes assume IEEE-754 doubles and a libm whose log() matches
 * glibc's; a kernel change that alters any label, draw, or counter
 * fails here with the new hash printed.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rsu_g.h"
#include "mrf/grid_mrf.h"
#include "ret/fault_injection.h"
#include "runtime/chromatic_sampler.h"
#include "runtime/inference_engine.h"
#include "runtime/parallel_sweep.h"
#include "runtime/thread_pool.h"
#include "workload/problem.h"
#include "workload/registry.h"

namespace {

using rsu::core::RsuGConfig;
using rsu::core::RsuGStats;
using rsu::mrf::GridMrf;
using rsu::runtime::ChromaticGibbsSampler;
using rsu::runtime::ParallelSweepExecutor;
using rsu::runtime::SamplerKind;
using rsu::runtime::ThreadPool;
using rsu::workload::InferenceProblem;

/** FNV-1a, 64-bit. */
class Fnv
{
  public:
    void
    add(uint64_t value, int bytes = 8)
    {
        for (int i = 0; i < bytes; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::vector<rsu::mrf::Label> &labels)
    {
        for (const auto l : labels)
            add(l, 1);
    }

    void
    add(const RsuGStats &s)
    {
        for (const uint64_t v :
             {s.samples, s.label_evals, s.issue_cycles, s.stall_cycles,
              s.saturated_ttfs, s.all_saturated_races, s.reraces,
              s.unrecovered_races})
            add(v);
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

InferenceProblem
makeProblem(const std::string &name, int size, int labels,
            uint64_t seed)
{
    rsu::workload::SceneOptions scene;
    scene.width = size;
    scene.height = size;
    scene.labels = labels;
    scene.seed = seed;
    return rsu::workload::WorkloadRegistry::builtin().make(name, scene);
}

/** Run @p sweeps chromatic RSU sweeps from the ML labelling and
 * hash labels plus summed device counters. */
uint64_t
chromaticHash(const InferenceProblem &problem, int shards, int sweeps,
              const RsuGConfig &base = {},
              const rsu::ret::FaultPlan *faults = nullptr,
              RsuGStats *stats_out = nullptr)
{
    GridMrf mrf(problem.config, *problem.singleton);
    mrf.initializeMaximumLikelihood();
    ThreadPool pool(2);
    ParallelSweepExecutor executor(pool, shards);
    ChromaticGibbsSampler sampler(mrf, executor, 77,
                                  SamplerKind::RsuGibbs, base);
    if (faults)
        sampler.injectFaults(*faults);
    sampler.run(sweeps);

    Fnv h;
    h.add(mrf.labels());
    h.add(sampler.deviceStats());
    if (stats_out)
        *stats_out = sampler.deviceStats();
    return h.value();
}

TEST(RsuGolden, SegmentationScalarCodes)
{
    const auto problem = makeProblem("segmentation", 128, 5, 401);
    EXPECT_EQ(chromaticHash(problem, 1, 4), 0x97da7f158edd8972ULL);
    EXPECT_EQ(chromaticHash(problem, 4, 4), 0x9b283b9df7c21a27ULL);
}

TEST(RsuGolden, MotionVectorCodes)
{
    const auto problem = makeProblem("motion", 128, 49, 402);
    ASSERT_EQ(problem.config.label_codes.size(), 49u);
    EXPECT_EQ(chromaticHash(problem, 1, 2), 0xeeaeb3f13bd3a189ULL);
    EXPECT_EQ(chromaticHash(problem, 4, 2), 0x80fa4178138de762ULL);
}

TEST(RsuGolden, FaultedUnitsReRace)
{
    const auto problem = makeProblem("segmentation", 64, 5, 403);
    rsu::ret::FaultPlan plan;
    plan.seed = 5;
    plan.stuck_led_fraction = 0.5;
    plan.dead_spad_fraction = 0.5;
    plan.dark_unit_fraction = 0.5;
    plan.dark_rate_per_ns = 0.05;
    plan.ttf_saturation_fraction = 0.5;
    plan.max_reraces = 2;
    plan.failure_threshold = 0; // report, never fail: run every sweep
    RsuGConfig base;
    base.width = 2;
    RsuGStats stats;
    EXPECT_EQ(chromaticHash(problem, 4, 3, base, &plan, &stats),
              0x67830e00accdc90cULL);
    EXPECT_GT(stats.reraces, 0u);
    EXPECT_GT(stats.unrecovered_races, 0u);
}

TEST(RsuGolden, TwoPassOffset)
{
    const auto problem = makeProblem("segmentation", 64, 5, 404);
    RsuGConfig base;
    base.two_pass_offset = true;
    EXPECT_EQ(chromaticHash(problem, 2, 4, base), 0x9a89a5ee2bb9f650ULL);
    const auto motion = makeProblem("motion", 64, 25, 405);
    EXPECT_EQ(chromaticHash(motion, 2, 2, base), 0x80fc796cbf73d662ULL);
}

TEST(RsuGolden, WideUnit)
{
    const auto problem = makeProblem("motion", 64, 25, 406);
    RsuGConfig base;
    base.width = 4;
    EXPECT_EQ(chromaticHash(problem, 2, 2, base), 0x9902006bc06ec04bULL);
}

TEST(RsuGolden, AnnealedEngineJob)
{
    const auto problem = makeProblem("segmentation", 64, 5, 407);
    rsu::workload::SubmitOptions options;
    options.anneal = true;
    options.seed = 91;
    options.shards = 2;
    auto job = rsu::workload::makeJob(problem, options);
    job.sampler = SamplerKind::RsuGibbs;

    rsu::runtime::InferenceEngine engine({.threads = 2});
    const auto result = engine.submit(std::move(job)).future.get();
    ASSERT_EQ(result.outcome, rsu::runtime::JobOutcome::Completed);
    ASSERT_GT(result.sweeps_run, 1);

    Fnv h;
    h.add(result.labels);
    h.add(result.device_stats);
    h.add(static_cast<uint64_t>(result.sweeps_run));
    EXPECT_EQ(h.value(), 0xdb30e19ee95334d7ULL);
}

} // namespace
