#include "rng/distributions.h"

#include <cassert>
#include <cmath>

namespace rsu::rng {

double
sampleNormal(Xoshiro256 &rng, double mean, double stddev)
{
    // Polar method: rejection-sample a point in the unit disc, then
    // transform. The second deviate is intentionally discarded (see
    // header).
    double u, v, s;
    do {
        u = 2.0 * rng.uniform() - 1.0;
        v = 2.0 * rng.uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    return mean + stddev * (u * m);
}

double
sampleGamma(Xoshiro256 &rng, double shape, double scale)
{
    assert(shape > 0.0 && scale > 0.0);
    if (shape < 1.0) {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        const double u = rng.uniformPositive();
        return sampleGamma(rng, shape + 1.0, scale) *
               std::pow(u, 1.0 / shape);
    }

    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = sampleNormal(rng, 0.0, 1.0);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = rng.uniformPositive();
        const double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2)
            return d * v * scale;
        if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
            return d * v * scale;
    }
}

double
sampleExponentialRace(Xoshiro256 &rng, const double *rates, int n,
                      int *winner)
{
    assert(n > 0);
    double best_t = 0.0;
    int best_i = -1;
    for (int i = 0; i < n; ++i) {
        if (rates[i] <= 0.0)
            continue; // a zero-rate clock never fires
        const double t = sampleExponential(rng, rates[i]);
        if (best_i < 0 || t < best_t) {
            best_t = t;
            best_i = i;
        }
    }
    assert(best_i >= 0 && "at least one rate must be positive");
    if (winner)
        *winner = best_i;
    return best_t;
}

} // namespace rsu::rng
