#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace idp {
namespace sim {

namespace {

/** SplitMix64 step, used only to expand seeds. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** Riemann zeta partial sum: sum_{i=1..n} 1/i^theta. */
double
zetaPartial(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitMix64(x);
}

Rng
Rng::forStream(std::uint64_t base, std::uint64_t index)
{
    return Rng(streamSeed(base, index));
}

std::uint64_t
streamSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t x = index;
    const std::uint64_t mixed_index = splitMix64(x);
    std::uint64_t y = base ^ mixed_index;
    return splitMix64(y);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    simAssert(n > 0, "uniformInt: empty range");
    // Lemire's multiply-shift bounded generation (slightly biased for
    // astronomically large n; negligible for simulation purposes).
    __uint128_t wide = static_cast<__uint128_t>(next()) * n;
    return static_cast<std::uint64_t>(wide >> 64);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    simAssert(lo <= hi, "uniformInt: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1ULL;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    simAssert(mean > 0.0, "exponential: mean must be > 0");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mu, double sigma)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mu + sigma * spareNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    haveSpareNormal_ = true;
    return mu + sigma * r * std::cos(theta);
}

double
Rng::boundedPareto(double lo, double hi, double alpha)
{
    simAssert(lo > 0.0 && hi > lo && alpha > 0.0,
              "boundedPareto: invalid parameters");
    const double u = uniform();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xA3C59AC2E1F4B7D9ULL);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    simAssert(n > 0, "ZipfSampler: population must be > 0");
    simAssert(theta >= 0.0, "ZipfSampler: theta must be >= 0");
    zetan_ = zetaPartial(n, theta);
    zeta2_ = zetaPartial(2, theta);
    rank1Bound_ = 1.0 + std::pow(0.5, theta);
    alpha_ = (theta == 1.0) ? 0.0 : 1.0 / (1.0 - theta);
    eta_ = (theta == 1.0)
        ? 0.0
        : (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
              (1.0 - zeta2_ / zetan_);
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    if (theta_ == 0.0)
        return rng.uniformInt(n_);
    if (theta_ == 1.0) {
        // Inverse-CDF by bisection on the harmonic sum is O(log n) but
        // theta == 1 exactly is rare; use simple rejection-free inverse
        // via the approximation H(k) ~ ln(k) + gamma.
        const double u = rng.uniform() * zetan_;
        double lo = 1.0, hi = static_cast<double>(n_);
        // ln(k) + gamma approximates H(k); solve ln(k) + gamma = u.
        const double gamma = 0.5772156649015329;
        double k = std::exp(u - gamma);
        if (k < lo)
            k = lo;
        if (k > hi)
            k = hi;
        return static_cast<std::uint64_t>(k) - 1;
    }
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < rank1Bound_)
        return 1;
    const double k = static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t rank = static_cast<std::uint64_t>(k);
    if (rank >= n_)
        rank = n_ - 1;
    return rank;
}

} // namespace sim
} // namespace idp
