#include "core/intensity_map.h"

#include <cmath>
#include <stdexcept>

namespace rsu::core {

IntensityMap::IntensityMap(int entries)
{
    if (entries < 2 || entries > 4096)
        throw std::invalid_argument("IntensityMap: entry count out of "
                                    "range");
    table_.assign(entries, 0);
}

void
IntensityMap::build(const rsu::ret::QdLedBank &bank, double temperature)
{
    if (temperature <= 0.0)
        throw std::invalid_argument("IntensityMap: temperature must "
                                    "be positive");
    const double max_intensity = bank.maxIntensity();
    const double min_intensity = bank.minIntensity();
    for (int e = 0; e < entries(); ++e) {
        const double target =
            max_intensity * std::exp(-static_cast<double>(e) /
                                     temperature);
        if (target < 0.5 * min_intensity) {
            table_[e] = 0; // negligible probability: never fires
        } else {
            table_[e] = bank.nearestCode(target);
        }
    }
}

void
IntensityMap::setEntry(int e, uint8_t code)
{
    if (e < 0 || e >= entries())
        throw std::out_of_range("IntensityMap::setEntry");
    table_[e] = code & 0x0f;
}

void
IntensityMap::writeWord(int word_index, uint64_t word)
{
    if (word_index < 0 || word_index >= words())
        throw std::out_of_range("IntensityMap::writeWord");
    for (int k = 0; k < 16; ++k) {
        const int e = word_index * 16 + k;
        if (e >= entries())
            break;
        table_[e] = static_cast<uint8_t>((word >> (4 * k)) & 0x0f);
    }
}

uint64_t
IntensityMap::readWord(int word_index) const
{
    if (word_index < 0 || word_index >= words())
        throw std::out_of_range("IntensityMap::readWord");
    uint64_t word = 0;
    for (int k = 0; k < 16; ++k) {
        const int e = word_index * 16 + k;
        if (e >= entries())
            break;
        word |= static_cast<uint64_t>(table_[e] & 0x0f) << (4 * k);
    }
    return word;
}

} // namespace rsu::core
