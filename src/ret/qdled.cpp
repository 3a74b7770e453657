#include "ret/qdled.h"

#include <cmath>
#include <stdexcept>

namespace rsu::ret {

QdLedBank::QdLedBank(const std::array<double, kNumLeds> &weights)
    : weights_(weights)
{
    for (double w : weights_) {
        if (w <= 0.0)
            throw std::invalid_argument("QdLedBank: weights must be "
                                        "positive");
    }
    for (int code = 0; code < kNumLedCodes; ++code) {
        double sum = 0.0;
        for (int k = 0; k < kNumLeds; ++k) {
            if (code & (1 << k))
                sum += weights_[k];
        }
        code_intensity_[code] = sum;
    }
}

QdLedBank::QdLedBank()
    : QdLedBank(designWeights(kDefaultLedDynamicRange))
{
}

double
QdLedBank::maxIntensity() const
{
    return code_intensity_[kNumLedCodes - 1];
}

double
QdLedBank::minIntensity() const
{
    double best = code_intensity_[kNumLedCodes - 1];
    for (int code = 1; code < kNumLedCodes; ++code)
        best = std::min(best, code_intensity_[code]);
    return best;
}

uint8_t
QdLedBank::nearestCode(double target) const
{
    if (target <= 0.0)
        return 0;
    int best_code = 1;
    double best_err = std::abs(std::log(code_intensity_[1] / target));
    for (int code = 2; code < kNumLedCodes; ++code) {
        const double err =
            std::abs(std::log(code_intensity_[code] / target));
        if (err < best_err) {
            best_err = err;
            best_code = code;
        }
    }
    return static_cast<uint8_t>(best_code);
}

std::array<double, kNumLeds>
QdLedBank::designWeights(double dynamic_range)
{
    if (dynamic_range < 1.0)
        throw std::invalid_argument("QdLedBank: dynamic range must be "
                                    ">= 1");
    const double r = std::pow(dynamic_range, 1.0 / 3.0);
    return {1.0, r, r * r, r * r * r};
}

} // namespace rsu::ret
