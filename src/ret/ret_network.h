/**
 * @file
 * Resonance Energy Transfer network models.
 *
 * A RET network is a geometric arrangement of chromophores whose
 * pairwise non-radiative couplings realize an absorbing continuous-
 * time Markov chain over excitation states; the emission time of the
 * terminal fluorophore is therefore *phase-type* distributed (Wang,
 * Lebeck & Dwyer, IEEE Micro 2015 — reference [42] of the paper).
 *
 * Two models are provided:
 *
 *  - ExponentialNetwork: the single-stage network the RSU-G uses.
 *    Under excitation intensity I the ensemble's first emission is a
 *    Poisson arrival with rate baseRate * I, i.e. TTF ~ Exp(I*k).
 *
 *  - PhaseTypeNetwork: a general absorbing CTMC over chromophore
 *    excitation states, supporting the "virtually arbitrary
 *    probabilistic behavior" claim. Used by tests and by the
 *    extension samplers (Erlang / hypoexponential / Bernoulli race).
 *
 * Both carry a photobleaching wear model: each excitation cycle
 * deactivates a small fraction of the ensemble (paper section 9
 * discusses longevity); the effective emission rate scales with the
 * surviving fraction.
 */

#ifndef RSU_RET_RET_NETWORK_H
#define RSU_RET_RET_NETWORK_H

#include <cstdint>
#include <limits>
#include <vector>

#include "rng/distributions.h"
#include "rng/xoshiro256.h"

namespace rsu::ret {

/** Wear model shared by the network types. */
struct WearModel
{
    /** Expected fraction of the ensemble lost per excitation cycle. */
    double bleach_per_cycle = 0.0;
    /** Encapsulation multiplier (<1 slows wear; 0 disables it). */
    double encapsulation_factor = 1.0;

    double effectiveBleach() const
    {
        return bleach_per_cycle * encapsulation_factor;
    }
};

/** Single-stage (exponential-TTF) RET network ensemble. */
class ExponentialNetwork
{
  public:
    /**
     * @param base_rate_per_ns emission rate per unit intensity for a
     *        fresh ensemble
     * @param wear photobleaching model (default: no wear)
     */
    explicit ExponentialNetwork(double base_rate_per_ns,
                                WearModel wear = {});

    /**
     * Draw a time-to-fluorescence (ns) under excitation intensity
     * @p intensity. Zero intensity never fires (returns infinity).
     * Each call ages the ensemble according to the wear model.
     */
    double
    sampleTtf(rsu::rng::Xoshiro256 &rng, double intensity)
    {
        ++cycles_;
        const double bleach = wear_.effectiveBleach();
        if (bleach > 0.0)
            surviving_ *= (1.0 - bleach);

        if (intensity <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double rate = effectiveRate() * intensity;
        return rsu::rng::sampleExponential(rng, rate);
    }

    /** Current effective rate per unit intensity. */
    double effectiveRate() const { return base_rate_ * surviving_; }

    /** Fraction of the ensemble still optically active, in (0, 1]. */
    double survivingFraction() const { return surviving_; }

    /** Excitation cycles experienced so far. */
    uint64_t cycles() const { return cycles_; }

    /** Restore a fresh ensemble (models chromophore replacement). */
    void refresh();

    /**
     * Apply @p cycles of excitation wear without drawing samples
     * (closed form; wear is deterministic in the cycle count).
     * Longevity studies use this to age devices past billions of
     * cycles cheaply.
     */
    void age(uint64_t cycles);

  private:
    double base_rate_;
    WearModel wear_;
    double surviving_ = 1.0;
    uint64_t cycles_ = 0;
};

/**
 * General phase-type RET network: an absorbing CTMC whose absorption
 * time is the emission time.
 */
class PhaseTypeNetwork
{
  public:
    /**
     * @param rates rates[i][j] is the transition rate from transient
     *        state i to state j; j == size() means absorption
     *        (photon emission); diagonal entries are ignored.
     * @param initial_state excitation entry state
     */
    PhaseTypeNetwork(std::vector<std::vector<double>> rates,
                     int initial_state = 0);

    /** Number of transient states. */
    int size() const { return static_cast<int>(rates_.size()); }

    /**
     * Simulate the chain to absorption; returns the absorption time
     * in ns scaled by 1/intensity on the first hop (excitation is
     * intensity-gated). Returns infinity if the chain can leak to a
     * dark state (row with all-zero rates).
     */
    double sampleTtf(rsu::rng::Xoshiro256 &rng,
                     double intensity = 1.0) const;

    /** Mean absorption time (ns) at unit intensity, by linear solve. */
    double meanTtf() const;

    /** Erlang-k network: k sequential hops of rate @p rate. */
    static PhaseTypeNetwork makeErlang(int k, double rate);

    /**
     * Two-path Bernoulli race: absorbs through a "bright" path with
     * probability p = bright_rate / (bright_rate + dark_rate); the
     * dark path absorbs into state -2 (reported as infinity).
     */
    static PhaseTypeNetwork makeBernoulli(double bright_rate,
                                          double dark_rate);

  private:
    std::vector<std::vector<double>> rates_;
    int initial_state_;
};

} // namespace rsu::ret

#endif // RSU_RET_RET_NETWORK_H
