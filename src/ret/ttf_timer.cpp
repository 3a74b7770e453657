#include "ret/ttf_timer.h"

#include <cmath>
#include <stdexcept>

namespace rsu::ret {

TtfTimer::TtfTimer(double clock_period_ns)
{
    if (clock_period_ns <= 0.0)
        throw std::invalid_argument("TtfTimer: clock period must be "
                                    "positive");
    tick_ns_ = clock_period_ns / kTtfOversample;
}

double
TtfTimer::tickProbability(double rate_per_ns, uint8_t q) const
{
    if (rate_per_ns <= 0.0)
        return q == kTtfSaturated ? 1.0 : 0.0;
    const double a = rate_per_ns * tick_ns_;
    if (q == kTtfSaturated) {
        // Tail mass at or beyond the saturation boundary.
        return std::exp(-a * static_cast<double>(kTtfSaturated));
    }
    const double lo = std::exp(-a * static_cast<double>(q));
    const double hi = std::exp(-a * static_cast<double>(q + 1));
    return lo - hi;
}

} // namespace rsu::ret
