/**
 * @file
 * Limited-precision clique-potential energy datapath.
 *
 * Implements the "Energy Calculation" pipeline stage (paper section
 * 5.2): the 8-bit energy of a candidate label is the saturating sum
 * of four doubleton clique potentials (squared-difference distance to
 * each neighbour's current label, Equation 2) and one singleton
 * potential (squared difference between two data inputs, with any
 * application weights pre-factored into the data).
 *
 * Labels are 6-bit; in vector mode a label is two 3-bit components
 * whose squared differences are summed, in scalar mode only the low
 * 3 bits participate (section 5.2). All arithmetic is exact integer
 * arithmetic with a single saturation point at the 8-bit output —
 * this mirrors the synthesized datapath, and the library's software
 * reference samplers reuse the same energies so that hardware and
 * reference disagree only through sampling, never through energy
 * rounding.
 */

#ifndef RSU_CORE_ENERGY_UNIT_H
#define RSU_CORE_ENERGY_UNIT_H

#include <array>
#include <cstdint>

#include "core/types.h"

namespace rsu::core {

/** Label interpretation for the doubleton distance. */
enum class LabelMode : uint8_t {
    Scalar, //!< low 3 bits significant
    Vector, //!< 2 x 3-bit components
};

/** Static datapath configuration. */
struct EnergyConfig
{
    bool operator==(const EnergyConfig &) const = default;

    LabelMode mode = LabelMode::Scalar;

    /**
     * Integer weight applied to each doubleton squared difference
     * (smoothness strength). Applied before saturation.
     */
    int doubleton_weight = 1;

    /**
     * Truncation of the doubleton distance (applied before the
     * weight): d = min(squared difference, cap). 0 disables. The
     * truncated-quadratic prior of the smoothness family the paper
     * targets (Szeliski et al., reference [36]) — it stops large
     * label discontinuities from being over-penalized, preserving
     * region edges. A single comparator in hardware.
     */
    int doubleton_cap = 0;

    /**
     * Right-shift applied to the singleton squared difference.
     * 6-bit data spans squared differences up to 3969, so the
     * default shift of 4 brings the worst case (248) into the 8-bit
     * energy range. Zero disables scaling.
     */
    int singleton_shift = 4;
};

/** Inputs for one candidate-label energy evaluation. */
struct EnergyInputs
{
    /** Current labels of the four neighbours (N/S/E/W). */
    std::array<Label, 4> neighbors;
    /** Validity of each neighbour (border pixels have fewer). */
    std::array<bool, 4> neighbor_valid = {true, true, true, true};
    /** First singleton data input (e.g. observed pixel intensity). */
    uint8_t data1 = 0;
    /** Second singleton data input (may change per candidate). */
    uint8_t data2 = 0;
    /**
     * Energy re-reference subtracted (saturating at 0) from every
     * candidate's energy before the intensity lookup. The Gibbs
     * conditional depends only on energy *differences*, but the
     * 4-bit LED ladder covers a finite dynamic range of absolute
     * rates; re-referencing to the current label's energy keeps
     * the interesting candidates inside that range even far from
     * equilibrium. Software softmax is exactly invariant to the
     * offset, so setting it never changes the reference sampler.
     */
    uint8_t energy_offset = 0;
};

/** Combinational energy unit. */
class EnergyUnit
{
  public:
    explicit EnergyUnit(const EnergyConfig &config = {});

    /**
     * Doubleton distance d(a, b) between two labels under the
     * configured mode and weight (unsaturated integer result).
     */
    int doubleton(Label a, Label b) const;

    /**
     * Singleton distance between the two 6-bit data inputs
     * (unsaturated integer result, after the configured shift).
     * Inline: the RSU sweep kernel evaluates it per candidate.
     */
    int
    singleton(uint8_t data1, uint8_t data2) const
    {
        const int d = static_cast<int>(data1 & kLabelMask) -
                      static_cast<int>(data2 & kLabelMask);
        return (d * d) >> config_.singleton_shift;
    }

    /**
     * Total 8-bit energy of evaluating @p candidate with the given
     * inputs: saturating sum of the singleton and the valid
     * doubletons.
     */
    Energy evaluate(Label candidate, const EnergyInputs &in) const;

    const EnergyConfig &config() const { return config_; }

  private:
    EnergyConfig config_;
};

} // namespace rsu::core

#endif // RSU_CORE_ENERGY_UNIT_H
