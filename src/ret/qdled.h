/**
 * @file
 * Quantum-dot LED bank model.
 *
 * Each RET circuit is excited by four QD-LEDs under binary on/off
 * control (paper section 5.2, "Intensity Mapping"): the 4-bit signal
 * from the intensity lookup table selects which LEDs are lit, and the
 * LEDs are *sized* so that the 16 achievable summed intensities span a
 * large dynamic range — enough to represent the relative-probability
 * ratios demonstrated on the macro-scale prototype (up to ~255:1).
 *
 * The bank therefore has one design input: the per-LED optical
 * weights; the achievable intensity for a code is simply the sum of
 * the lit LEDs' weights. The default sizing is binary ({1,2,4,8}),
 * which makes the sorted intensity ladder the contiguous integers
 * 1..15 — the densest coverage four binary LEDs can achieve, at a
 * 15:1 dynamic range. Wider geometric sizings (up to the 255:1
 * ratios the prototype demonstrates) are available through
 * designWeights(), trading mid-range coverage for range; the
 * LED-design ablation bench quantifies that trade-off.
 */

#ifndef RSU_RET_QDLED_H
#define RSU_RET_QDLED_H

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rsu::ret {

/** Number of QD-LEDs per RET circuit (fixed by the RSU-G design). */
constexpr int kNumLeds = 4;

/** Number of distinct LED on/off codes. */
constexpr int kNumLedCodes = 1 << kNumLeds;

/** A bank of four binary-controlled QD-LEDs. */
class QdLedBank
{
  public:
    /**
     * @param weights relative optical power of each LED; all must be
     *                positive.
     */
    explicit QdLedBank(const std::array<double, kNumLeds> &weights);

    /** Bank with the default geometric sizing for @p dynamic_range. */
    QdLedBank();

    /**
     * Total optical intensity for a 4-bit on/off code.
     * Code 0 (all off) yields exactly 0.
     */
    double
    intensity(uint8_t code) const
    {
        assert(code < kNumLedCodes);
        return code_intensity_[code];
    }

    /** Largest achievable intensity (all LEDs on). */
    double maxIntensity() const;

    /** Smallest non-zero achievable intensity. */
    double minIntensity() const;

    /**
     * Code whose intensity is closest to @p target on a log scale
     * (never code 0 unless @p target is exactly 0). Used to build the
     * energy-to-intensity lookup table.
     */
    uint8_t nearestCode(double target) const;

    const std::array<double, kNumLeds> &weights() const
    {
        return weights_;
    }

    /**
     * Design per-LED weights by geometric sizing w_k = r^k with
     * r = dynamic_range^(1/3), normalized so the smallest LED has
     * weight 1 (the largest then equals @p dynamic_range).
     * dynamic_range = 8 yields the binary {1,2,4,8} default whose
     * sums tile 1..15; larger values spread the ladder wider at the
     * cost of mid-range gaps.
     */
    static std::array<double, kNumLeds>
    designWeights(double dynamic_range);

  private:
    std::array<double, kNumLeds> weights_;
    std::array<double, kNumLedCodes> code_intensity_;
};

/** Default per-LED dynamic range: binary sizing, sums tile 1..15. */
constexpr double kDefaultLedDynamicRange = 8.0;

} // namespace rsu::ret

#endif // RSU_RET_QDLED_H
