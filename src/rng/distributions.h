/**
 * @file
 * Software samplers for continuous distributions.
 *
 * These are the software baseline the paper's Table 1 measures
 * (exponential, normal, gamma) plus the exponential sampler the
 * emulated RET devices use internally. Each sampler is written as a
 * free function over a UniformRandomBitGenerator-like engine so the
 * same code path serves both the statistical substrate and the
 * benchmarks.
 */

#ifndef RSU_RNG_DISTRIBUTIONS_H
#define RSU_RNG_DISTRIBUTIONS_H

#include <cassert>
#include <cmath>

#include "rng/xoshiro256.h"

namespace rsu::rng {

/**
 * Sample Exp(rate) by inverse-transform.
 *
 * Defined inline: every emulated RET-circuit firing draws one.
 *
 * @param rng entropy source
 * @param rate decay rate lambda (> 0)
 * @return a sample with mean 1/rate
 */
inline double
sampleExponential(Xoshiro256 &rng, double rate)
{
    assert(rate > 0.0);
    return -std::log(rng.uniformPositive()) / rate;
}

/**
 * Sample N(mean, stddev^2) via the polar (Marsaglia) method.
 *
 * Stateless: the second deviate of each pair is discarded so that
 * samples never depend on hidden sampler state. This keeps replayed
 * device traces reproducible regardless of interleaving.
 */
double sampleNormal(Xoshiro256 &rng, double mean, double stddev);

/**
 * Sample Gamma(shape, scale) via Marsaglia-Tsang.
 *
 * Uses the squeeze method for shape >= 1 and boosting for shape < 1.
 */
double sampleGamma(Xoshiro256 &rng, double shape, double scale);

/**
 * Time of the winner of a race among @p n independent exponential
 * clocks with rates @p rates. Returns the winning index via
 * @p winner. Equivalent to sampling a discrete distribution with
 * probabilities proportional to the rates — the mathematical core of
 * the first-to-fire Gibbs unit (paper section 4.3).
 */
double sampleExponentialRace(Xoshiro256 &rng, const double *rates,
                             int n, int *winner);

} // namespace rsu::rng

#endif // RSU_RNG_DISTRIBUTIONS_H
