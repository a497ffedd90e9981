/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * hetsim never uses std::rand or random_device: every experiment must be
 * bit-reproducible from its seed.  Rng is a xoshiro256** generator seeded
 * through SplitMix64, following the reference implementations by
 * Blackman & Vigna.
 */

#ifndef HETSIM_COMMON_RNG_HH
#define HETSIM_COMMON_RNG_HH

#include <cstdint>

#include "types.hh"

namespace hetsim
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialize the state from a seed via SplitMix64. */
    void
    reseed(u64 seed)
    {
        u64 x = seed;
        for (auto &word : state)
            word = splitmix64(x);
    }

    /** @return next raw 64-bit value. */
    u64
    next()
    {
        const u64 result = rotl(state[1] * 5, 7) * 9;
        const u64 t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** @return uniform integer in [0, bound), bound > 0. */
    u64
    below(u64 bound)
    {
        // Bitmask rejection keeps the draw exactly uniform.
        const u64 mask = coverMask(bound);
        u64 v;
        do {
            v = next() & mask;
        } while (v >= bound);
        return v;
    }

    /**
     * Fill out[0, count) with what @p count calls of below(bound)
     * return, in the same order, leaving the generator in the same
     * state.  Precondition: bound > 0.
     */
    void
    fillBelow(u64 bound, u64 *out, u64 count)
    {
        // Branch-free rejection: a rejected draw is overwritten by the
        // next one because j only advances on an accepted draw.  The
        // draws come from a local copy written back once: out[] could
        // alias state, so drawing from the member would store and
        // reload the state on every draw.
        const u64 mask = coverMask(bound);
        Rng local = *this;
        for (u64 j = 0; j < count;) {
            const u64 v = local.next() & mask;
            out[j] = v;
            j += v < bound;
        }
        *this = local;
    }

  private:
    /** @return the smallest all-ones mask covering bound - 1. */
    static u64
    coverMask(u64 bound)
    {
        u64 mask = bound - 1;
        mask |= mask >> 1;
        mask |= mask >> 2;
        mask |= mask >> 4;
        mask |= mask >> 8;
        mask |= mask >> 16;
        mask |= mask >> 32;
        return mask;
    }

    static u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static u64
    splitmix64(u64 &x)
    {
        u64 z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    u64 state[4];
};

} // namespace hetsim

#endif // HETSIM_COMMON_RNG_HH
