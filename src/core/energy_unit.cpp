#include "core/energy_unit.h"

#include <algorithm>
#include <stdexcept>

namespace rsu::core {

EnergyUnit::EnergyUnit(const EnergyConfig &config) : config_(config)
{
    if (config_.doubleton_weight < 0)
        throw std::invalid_argument("EnergyUnit: negative doubleton "
                                    "weight");
    if (config_.doubleton_cap < 0)
        throw std::invalid_argument("EnergyUnit: negative doubleton "
                                    "cap");
    if (config_.singleton_shift < 0 || config_.singleton_shift > 12)
        throw std::invalid_argument("EnergyUnit: singleton shift out "
                                    "of range");
}

int
EnergyUnit::doubleton(Label a, Label b) const
{
    a &= kLabelMask;
    b &= kLabelMask;
    int dist;
    if (config_.mode == LabelMode::Vector) {
        const int d1 = labelX1(a) - labelX1(b);
        const int d2 = labelX2(a) - labelX2(b);
        dist = d1 * d1 + d2 * d2;
    } else {
        const int d = labelX1(a) - labelX1(b);
        dist = d * d;
    }
    if (config_.doubleton_cap > 0)
        dist = std::min(dist, config_.doubleton_cap);
    return config_.doubleton_weight * dist;
}

Energy
EnergyUnit::evaluate(Label candidate, const EnergyInputs &in) const
{
    int total = singleton(in.data1, in.data2);
    for (int i = 0; i < 4; ++i) {
        if (in.neighbor_valid[i])
            total += doubleton(candidate, in.neighbors[i]);
    }
    // The datapath saturates the clique sum at 8 bits, then
    // re-references it against the offset with a floor at zero.
    total = std::min(total, kEnergyMax) -
            static_cast<int>(in.energy_offset);
    return static_cast<Energy>(std::max(total, 0));
}

} // namespace rsu::core
