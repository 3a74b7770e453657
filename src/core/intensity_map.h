/**
 * @file
 * Energy-to-intensity lookup table.
 *
 * The "Intensity Mapping" pipeline stage (paper section 5.2): a
 * 256-entry x 4-bit LUT translating an 8-bit clique-potential energy
 * into the LED on/off code whose optical intensity best approximates
 * the Gibbs weight exp(-E/T). The table is application state,
 * initialized once per application through the RSU instruction
 * (section 6.1) and saved/restored on context switches.
 *
 * Building the table requires the LED bank's achievable intensity
 * ladder; the builder picks, for each energy, the code nearest to
 * maxIntensity * exp(-E/T) on a log scale. Energies whose target
 * falls below half the dimmest achievable intensity map to code 0
 * (all LEDs off, channel never fires) — the hardware's way of
 * flushing negligible-probability labels to zero.
 */

#ifndef RSU_CORE_INTENSITY_MAP_H
#define RSU_CORE_INTENSITY_MAP_H

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "ret/qdled.h"

namespace rsu::core {

/** The 4-bit-wide LUT, with a configurable entry count for the
 * precision-ablation studies (default 256 = 8-bit energies). */
class IntensityMap
{
  public:
    /** Uninitialized table (all entries 0) with @p entries entries. */
    explicit IntensityMap(int entries = kEnergyMax + 1);

    /**
     * Build the table for Gibbs temperature @p temperature against
     * LED bank @p bank.
     *
     * @param bank achievable-intensity ladder
     * @param temperature the MRF's T constant (energy units)
     */
    void build(const rsu::ret::QdLedBank &bank, double temperature);

    /** LED code for energy @p e (energies past the end clamp). */
    uint8_t
    lookup(int e) const
    {
        if (e < 0)
            e = 0;
        if (e >= entries())
            e = entries() - 1;
        return table_[e];
    }

    /** Raw entry write (ISA map-table initialization path). */
    void setEntry(int e, uint8_t code);

    /**
     * Write 16 consecutive 4-bit entries packed into a 64-bit word
     * (entry e in bits [4e+3 : 4e] of the word). Used by the RSU
     * instruction's MAP_TABLE_LO/HI transfers.
     */
    void writeWord(int word_index, uint64_t word);

    /** Read back a packed 64-bit word (context save). */
    uint64_t readWord(int word_index) const;

    int entries() const { return static_cast<int>(table_.size()); }

    /** Number of 64-bit words that cover the table. */
    int words() const { return (entries() + 15) / 16; }

    /** Table size in bytes (4 bits per entry). */
    int sizeBytes() const { return (entries() + 1) / 2; }

    bool operator==(const IntensityMap &other) const
    {
        return table_ == other.table_;
    }

  private:
    std::vector<uint8_t> table_;
};

} // namespace rsu::core

#endif // RSU_CORE_INTENSITY_MAP_H
