#include "mrf/rsu_gibbs.h"

#include <algorithm>
#include <stdexcept>

namespace rsu::mrf {

using rsu::core::packNeighbors;
using rsu::core::packSingletonD;
using rsu::core::RsuReg;

RsuSiteKernel::RsuSiteKernel(const GridMrf &mrf)
    : data1_(static_cast<size_t>(mrf.size())),
      data2_(mrf.buildData2Table()),
      doubletons_(mrf.energyUnit(), mrf.labelCodes())
{
    for (int y = 0; y < mrf.height(); ++y)
        for (int x = 0; x < mrf.width(); ++x)
            data1_[mrf.index(x, y)] = mrf.singleton().data1(x, y);
}

Label
RsuSiteKernel::update(GridMrf &mrf, rsu::core::RsuG &unit,
                      SamplerWork &work, int x, int y) const
{
    const int m = mrf.numLabels();
    const int w = mrf.width();
    const int site = mrf.index(x, y);
    const Label *labels = mrf.labels().data();

    // Neighbour order N, S, W, E (GridMrf::inputsAt); an off-lattice
    // neighbour adds a zero row, as an invalid one adds nothing.
    static constexpr int32_t kNoNeighbor[rsu::core::kMaxLabels] = {};
    const int32_t *zero = kNoNeighbor;
    const int32_t *north =
        y > 0 ? doubletons_.row(labels[site - w]) : zero;
    const int32_t *south =
        y + 1 < mrf.height() ? doubletons_.row(labels[site + w]) : zero;
    const int32_t *west =
        x > 0 ? doubletons_.row(labels[site - 1]) : zero;
    const int32_t *east =
        x + 1 < w ? doubletons_.row(labels[site + 1]) : zero;

    // EnergyUnit::evaluate's terms, with its one saturation point.
    const EnergyUnit &energy_unit = mrf.energyUnit();
    const uint8_t data1 = data1_[site];
    const uint8_t *data2 = data2_.row(site);
    Energy energies[rsu::core::kMaxLabels];
    for (int i = 0; i < m; ++i) {
        const int total = energy_unit.singleton(data1, data2[i]) +
                          north[i] + south[i] + west[i] + east[i];
        energies[i] =
            static_cast<Energy>(std::min(total, rsu::core::kEnergyMax));
    }

    // Re-reference. Two-pass: against the candidates' minimum.
    // Single-pass: against the incumbent label's energy
    // (GridMrf::referencedInputsAt), floored at zero; a label that
    // is not one of the model's codes is evaluated directly.
    Energy offset;
    if (unit.config().two_pass_offset) {
        offset = *std::min_element(energies, energies + m);
    } else {
        const Label current = labels[site];
        const int incumbent = mrf.indexOfCode(current);
        offset = incumbent >= 0 && mrf.codeOf(incumbent) == current
                     ? energies[incumbent]
                     : mrf.conditionalEnergy(x, y, current);
    }
    for (int i = 0; i < m; ++i)
        energies[i] = static_cast<Energy>(
            std::max(static_cast<int>(energies[i]) - offset, 0));

    const Label l = unit.sampleEnergies(energies);

    work.energy_evals += m;
    ++work.random_draws;
    ++work.site_updates;

    mrf.setLabel(x, y, l);
    return l;
}

RsuGibbsSampler::RsuGibbsSampler(GridMrf &mrf, rsu::core::RsuG &unit,
                                 Schedule schedule, Mode mode)
    : mrf_(mrf), unit_(unit), device_(unit), schedule_(schedule),
      mode_(mode), kernel_(mrf)
{
    if (!(unit_.config().energy == mrf_.config().energy))
        throw std::invalid_argument(
            "RsuGibbsSampler: the RSU-G's energy datapath "
            "configuration must match the model's (use "
            "unitConfigFor())");
    unit_.initialize(mrf_.numLabels(), mrf_.temperature());
    unit_.setLabelCodes(mrf_.labelCodes());
}

rsu::core::RsuGConfig
RsuGibbsSampler::unitConfigFor(const GridMrf &mrf,
                               rsu::core::RsuGConfig base)
{
    base.energy = mrf.config().energy;
    return base;
}

Label
RsuGibbsSampler::updateSite(int x, int y)
{
    if (mode_ == Mode::Direct)
        return kernel_.update(mrf_, unit_, work_, x, y);

    const int m = mrf_.numLabels();
    const EnergyInputs in = mrf_.referencedInputsAt(x, y);
    const uint8_t *data2 = kernel_.data2Row(mrf_.index(x, y));

    Label l;
    {
        device_.write(RsuReg::Neighbors,
                      packNeighbors(in.neighbors, in.neighbor_valid));
        device_.write(RsuReg::SingletonA, in.data1);
        device_.write(RsuReg::EnergyOffset, in.energy_offset);
        if (mrf_.singleton().data2PerLabel()) {
            for (int base = 0; base < m; base += 8) {
                const int count = std::min(8, m - base);
                device_.write(RsuReg::SingletonD,
                              packSingletonD(&data2[base], count));
            }
        } else {
            device_.write(RsuReg::SingletonD,
                          packSingletonD(&data2[0], 1));
        }
        l = device_.readResult().label;
    }

    work_.energy_evals += m;
    ++work_.random_draws;
    ++work_.site_updates;

    mrf_.setLabel(x, y, l);
    return l;
}

void
RsuGibbsSampler::sweep()
{
    forEachSite(mrf_.width(), mrf_.height(), schedule_,
                [this](int x, int y) { updateSite(x, y); });
}

void
RsuGibbsSampler::run(int n)
{
    for (int i = 0; i < n; ++i)
        sweep();
}

uint64_t
RsuGibbsSampler::rsuInstructions() const
{
    return device_.instructionCount();
}

void
RsuGibbsSampler::setTemperature(double t)
{
    mrf_.setTemperature(t);
    unit_.initialize(mrf_.numLabels(), t);
    unit_.setLabelCodes(mrf_.labelCodes());
}

} // namespace rsu::mrf
