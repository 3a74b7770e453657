/**
 * @file
 * xoshiro256++ pseudo-random number generator.
 *
 * The library's default source of entropy for all software samplers
 * and for the emulated RET devices. xoshiro256++ (Blackman & Vigna)
 * is fast, has a 2^256-1 period, and passes all known statistical
 * test batteries. It satisfies the C++ UniformRandomBitGenerator
 * concept so it can also drive the standard-library distributions
 * used by the Table 1 baseline measurements.
 */

#ifndef RSU_RNG_XOSHIRO256_H
#define RSU_RNG_XOSHIRO256_H

#include <array>
#include <cstdint>
#include <limits>

namespace rsu::rng {

/** xoshiro256++ engine. Satisfies UniformRandomBitGenerator. */
class Xoshiro256
{
  public:
    using result_type = uint64_t;

    /** Construct from a single 64-bit seed (expanded via SplitMix64). */
    explicit Xoshiro256(uint64_t seed = 0x9c2ae15f0971cf1bULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit output. Defined inline: the emulated RET
     * circuits draw once per candidate label, so the generator sits
     * on the RSU-G's innermost loop. */
    result_type
    operator()()
    {
        const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * Uniform double in [0, 1) with 53 bits of precision.
     *
     * Uses the upper 53 bits of the raw output, the standard
     * conversion recommended by the generator's authors.
     */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in (0, 1] — never zero, safe for log(). */
    double
    uniformPositive()
    {
        // (raw >> 11) is in [0, 2^53); adding one shifts to (0, 2^53].
        return static_cast<double>(((*this)() >> 11) + 1) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) without modulo bias. */
    uint64_t below(uint64_t bound);

    /**
     * Advance the state by 2^128 steps.
     *
     * Generates non-overlapping subsequences for parallel chains
     * (e.g., one stream per replicated RET circuit).
     */
    void jump();

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> s_;
};

} // namespace rsu::rng

#endif // RSU_RNG_XOSHIRO256_H
