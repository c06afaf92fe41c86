/**
 * @file
 * Seeded, reproducible pseudo-random number generation.
 *
 * Every stochastic component in varsched (variation maps, workload
 * trace generators, scheduling trials, simulated annealing) draws from
 * an explicitly seeded Rng so that whole experiments — 200-die batches,
 * 20-trial workload sweeps — replay bit-identically across runs and
 * platforms. The generator is xoshiro256**, which is small, fast, and
 * has no observable statistical defects at the sample sizes we use.
 */

#ifndef VARSCHED_SOLVER_RNG_HH
#define VARSCHED_SOLVER_RNG_HH

#include <cmath>
#include <cstdint>
#include <numbers>

namespace varsched
{

/** One splitmix64 mixing step (also the Rng state expander). */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Derive a child seed as a pure function of (seed, a, b) — no
 * sequential draws involved, so stream i of a batch can be derived
 * in any order (or concurrently) and still match a serial walk.
 * Used by the batch runner to give every (die, trial) tuple its own
 * independent stream.
 */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
{
    std::uint64_t x = splitmix64(seed ^ (a * 0xd1342543de82ef95ull));
    x = splitmix64(x ^ (b * 0x2545f4914f6cdd1dull));
    return splitmix64(x);
}

/**
 * Deterministic random number generator (xoshiro256**) with
 * convenience draws for the distributions used across the project.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (-n) % n;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % n;
        }
    }

    /** Standard normal draw (Box-Muller, cached second value). */
    double
    normal()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        double u1 = 0.0;
        while (u1 == 0.0)
            u1 = uniform();
        const double u2 = uniform();
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double ang = 2.0 * std::numbers::pi * u2;
        spare_ = mag * std::sin(ang);
        haveSpare_ = true;
        return mag * std::cos(ang);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mu, double sigma)
    {
        return mu + sigma * normal();
    }

    /**
     * True when a cached Box-Muller spare is pending — i.e. the next
     * normal() returns the stored sin half instead of drawing
     * uniforms. Batched normal fills check this to decide whether the
     * vectorised path (which replays the uniform stream in pairs)
     * starts stream-aligned with the scalar sequence.
     */
    bool
    hasNormalSpare() const
    {
        return haveSpare_;
    }

    /**
     * Derive an independent child generator. Used to give each die,
     * trial, or application its own stream while remaining a pure
     * function of (parent seed, tag).
     */
    Rng
    fork(std::uint64_t tag)
    {
        return Rng(next() ^ (tag * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    double spare_ = 0.0;
    bool haveSpare_ = false;
};

} // namespace varsched

#endif // VARSCHED_SOLVER_RNG_HH
