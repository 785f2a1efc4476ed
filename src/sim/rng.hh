/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * We use xoshiro256** rather than std::mt19937 plus the standard
 * distributions because the C++ standard does not pin down distribution
 * algorithms; this generator plus our own distribution code gives
 * bit-identical workloads on every platform and standard library.
 */

#ifndef IDP_SIM_RNG_HH
#define IDP_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace idp {
namespace sim {

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Seeded through SplitMix64 so that any 64-bit seed (including 0)
 * produces a well-mixed state.
 */
class Rng
{
  public:
    /** Construct with the given seed; identical seeds replay streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /**
     * Generator for stream @p index of the family rooted at @p base:
     * Rng(streamSeed(base, index)). A sweep point that seeds from
     * its own stream gets the same numbers whatever thread runs it.
     */
    static Rng forStream(std::uint64_t base, std::uint64_t index);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial: true with probability p. */
    bool chance(double p);

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /** Normal variate (Box-Muller), mean mu, std dev sigma. */
    double normal(double mu, double sigma);

    /**
     * Bounded Pareto variate on [lo, hi] with shape alpha (> 0).
     * Used for bursty inter-arrival and request-size models.
     */
    double boundedPareto(double lo, double hi, double alpha);

    /** Fork an independent child stream (for per-component RNGs). */
    Rng fork();

  private:
    std::uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * Derive the seed of stream @p index from a family's @p base seed.
 *
 * Two SplitMix64 mixing rounds (index first, then base) give an O(1),
 * order-independent mapping with well-separated streams: any two
 * distinct (base, index) pairs yield statistically independent
 * generators. A point seeded from stream i of a family draws the same
 * numbers whichever thread runs it, in whatever order.
 */
std::uint64_t streamSeed(std::uint64_t base, std::uint64_t index);

/**
 * Zipf-distributed integer sampler over {0, ..., n-1} with exponent theta.
 *
 * Rank 0 is the most popular item. Uses the standard inverse-CDF rejection
 * method of Gray et al. so setup is O(1) and sampling is O(1); theta = 0
 * degenerates to uniform.
 */
class ZipfSampler
{
  public:
    /** @param n population size (> 0), @param theta skew in [0, ~2]. */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one rank in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t population() const { return n_; }
    double theta() const { return theta_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2_;
    /** 1 + 0.5^theta: draws with u * zetan below it are rank 0 or 1. */
    double rank1Bound_;
};

} // namespace sim
} // namespace idp

#endif // IDP_SIM_RNG_HH
