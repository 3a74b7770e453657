#include "runtime/chromatic_sampler.h"

#include "rng/streams.h"

namespace rsu::runtime {

ChromaticGibbsSampler::ChromaticGibbsSampler(
    rsu::mrf::GridMrf &mrf, ParallelSweepExecutor &executor,
    uint64_t seed, SamplerKind kind,
    const rsu::core::RsuGConfig &rsu_base, rsu::mrf::SweepPath path,
    std::shared_ptr<const rsu::mrf::SweepTableSet> table_set)
    : mrf_(mrf), executor_(executor), kind_(kind), path_(path),
      shards_(executor.shards())
{
    const int n = executor.shards();
    if (kind_ == SamplerKind::SoftwareGibbs) {
        if (path_ != rsu::mrf::SweepPath::Reference)
            tables_ = table_set
                          ? std::make_unique<rsu::mrf::SweepTables>(
                                mrf, std::move(table_set))
                          : std::make_unique<rsu::mrf::SweepTables>(
                                mrf);
        auto streams = rsu::rng::splitStreams(seed, n);
        for (int s = 0; s < n; ++s) {
            shards_[s].rng = streams[s];
            shards_[s].weights.resize(mrf.numLabels());
            if (path_ == rsu::mrf::SweepPath::Simd)
                shards_[s].fixed_weights.resize(
                    tables_->paddedLabels());
        }
    } else {
        auto config =
            rsu::mrf::RsuGibbsSampler::unitConfigFor(mrf, rsu_base);
        const auto seeds = rsu::rng::splitSeeds(seed, n);
        for (int s = 0; s < n; ++s) {
            auto &shard = shards_[s];
            shard.unit = std::make_unique<rsu::core::RsuG>(
                config, seeds[s]);
            shard.unit->initialize(mrf.numLabels(),
                                   mrf.temperature());
            shard.unit->setLabelCodes(mrf.labelCodes());
        }
        rsu_kernel_ = std::make_unique<rsu::mrf::RsuSiteKernel>(mrf);
    }
}

bool
ChromaticGibbsSampler::sweep()
{
    if (kind_ == SamplerKind::SoftwareGibbs) {
        if (tables_) {
            // Single-threaded before the shards fan out: rebuild
            // the exp tables if annealing moved the temperature.
            tables_->sync();
            const rsu::mrf::SweepTables &tables = *tables_;
            if (path_ == rsu::mrf::SweepPath::Simd) {
                return executor_.sweepSplit(
                    mrf_.width(), mrf_.height(),
                    [this, &tables](int s, int x, int y) {
                        auto &shard = shards_[s];
                        tables.updateInteriorSimd(
                            mrf_, shard.rng, shard.block,
                            shard.fixed_weights.data(), shard.work,
                            x, y);
                    },
                    [this, &tables](int s, int x, int y) {
                        auto &shard = shards_[s];
                        tables.updateBorderSimd(
                            mrf_, shard.rng, shard.block,
                            shard.fixed_weights.data(), shard.work,
                            x, y);
                    });
            }
            return executor_.sweepSplit(
                mrf_.width(), mrf_.height(),
                [this, &tables](int s, int x, int y) {
                    auto &shard = shards_[s];
                    tables.updateInterior(mrf_, shard.rng,
                                          shard.weights.data(),
                                          shard.work, x, y);
                },
                [this, &tables](int s, int x, int y) {
                    auto &shard = shards_[s];
                    tables.updateBorder(mrf_, shard.rng,
                                        shard.weights.data(),
                                        shard.work, x, y);
                });
        }
        return executor_.sweep(
            mrf_.width(), mrf_.height(), [this](int s, int x, int y) {
                auto &shard = shards_[s];
                rsu::mrf::GibbsSampler::updateSiteWith(
                    mrf_, shard.rng, shard.weights.data(),
                    shard.work, x, y);
            });
    }
    const rsu::mrf::RsuSiteKernel &kernel = *rsu_kernel_;
    return executor_.sweep(
        mrf_.width(), mrf_.height(),
        [this, &kernel](int s, int x, int y) {
            auto &shard = shards_[s];
            kernel.update(mrf_, *shard.unit, shard.work, x, y);
        });
}

void
ChromaticGibbsSampler::run(int n)
{
    for (int i = 0; i < n; ++i)
        if (!sweep())
            return;
}

void
ChromaticGibbsSampler::setTemperature(double t)
{
    mrf_.setTemperature(t);
    if (kind_ != SamplerKind::RsuGibbs)
        return;
    for (auto &shard : shards_) {
        shard.unit->initialize(mrf_.numLabels(), t);
        shard.unit->setLabelCodes(mrf_.labelCodes());
    }
}

void
ChromaticGibbsSampler::setSimdIsa(rsu::core::SimdIsa isa)
{
    if (tables_)
        tables_->setSimdIsa(isa);
}

void
ChromaticGibbsSampler::injectFaults(const rsu::ret::FaultPlan &plan)
{
    if (kind_ != SamplerKind::RsuGibbs)
        return;
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
        auto &unit = *shards_[s].unit;
        unit.injectFaults(plan.faultsFor(s, unit.config().width));
    }
}

bool
ChromaticGibbsSampler::deviceFailed() const
{
    for (const auto &shard : shards_)
        if (shard.unit && shard.unit->failed())
            return true;
    return false;
}

rsu::core::RsuGStats
ChromaticGibbsSampler::deviceStats() const
{
    rsu::core::RsuGStats total;
    for (const auto &shard : shards_)
        if (shard.unit)
            total += shard.unit->stats();
    return total;
}

rsu::mrf::SamplerWork
ChromaticGibbsSampler::work() const
{
    rsu::mrf::SamplerWork total;
    for (const auto &shard : shards_) {
        total.site_updates += shard.work.site_updates;
        total.energy_evals += shard.work.energy_evals;
        total.exp_calls += shard.work.exp_calls;
        total.random_draws += shard.work.random_draws;
    }
    return total;
}

} // namespace rsu::runtime
