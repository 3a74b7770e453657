/**
 * @file
 * Time-to-fluorescence timing circuit.
 *
 * The RSU-G records each RET circuit's time to first photon detection
 * with an 8-bit shift register clocked 8x faster than the system
 * clock (paper section 5.2, "RET Sampling"). This model captures the
 * two architecturally relevant consequences:
 *
 *  - quantization: continuous arrival times collapse into sub-cycle
 *    ticks of width clockPeriod/8;
 *  - saturation: arrivals later than 255 ticks (or no arrival at
 *    all) read as the maximum register value.
 *
 * Quantized exponential arrivals are geometric in the tick index, so
 * closed-form race probabilities exist; the property tests compare
 * the emulated selection behaviour against them.
 */

#ifndef RSU_RET_TTF_TIMER_H
#define RSU_RET_TTF_TIMER_H

#include <cmath>
#include <cstdint>
#include <limits>

namespace rsu::ret {

/** Shift-register oversampling factor relative to the system clock. */
constexpr int kTtfOversample = 8;

/** Saturated register reading: photon not (yet) observed. */
constexpr uint8_t kTtfSaturated = 255;

/** 8-bit, 8x-oversampled time-to-fluorescence quantizer. */
class TtfTimer
{
  public:
    /**
     * @param clock_period_ns system clock period; the register tick
     *        is clock_period_ns / 8.
     */
    explicit TtfTimer(double clock_period_ns);

    /** Register tick width in nanoseconds. */
    double tickNs() const { return tick_ns_; }

    /**
     * Quantize a continuous arrival time (ns). Negative or infinite
     * times and times past the register range read as saturated.
     */
    uint8_t
    quantize(double arrival_ns) const
    {
        if (arrival_ns < 0.0 || !std::isfinite(arrival_ns))
            return kTtfSaturated;
        const double ticks = arrival_ns / tick_ns_;
        if (ticks >= static_cast<double>(kTtfSaturated))
            return kTtfSaturated;
        return static_cast<uint8_t>(ticks);
    }

    /**
     * Probability that an Exp(rate) arrival quantizes to tick @p q.
     * Ticks are geometric: P(q) = e^{-rate*q*tick} - e^{-rate*(q+1)*tick}
     * for q < 255, with the saturated bin absorbing the tail.
     * Used as the analytic oracle in property tests.
     */
    double tickProbability(double rate_per_ns, uint8_t q) const;

  private:
    double tick_ns_;
};

} // namespace rsu::ret

#endif // RSU_RET_TTF_TIMER_H
