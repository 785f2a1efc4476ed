/**
 * @file
 * Exact-percentile sample collector with reservoir fallback.
 *
 * Figure 8 reports 90th-percentile response times; the limit study
 * quotes means. SampleSet keeps every sample up to a cap and switches
 * to uniform reservoir sampling beyond it so percentiles stay accurate
 * without unbounded memory on multi-million-request runs. A set built
 * with capacity kMomentsOnly keeps no samples at all: only count,
 * mean, stddev, min and max, for streams nobody reads a quantile of.
 */

#ifndef IDP_STATS_SAMPLER_HH
#define IDP_STATS_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace idp {
namespace stats {

/**
 * Collects scalar samples; computes exact order statistics on demand.
 *
 * Thread model: add() and seal() mutate and need external
 * serialization, as usual; every const accessor (including
 * quantile()) is safe to call from concurrent readers. quantile() on
 * an unsealed set selects within a local copy rather than the shared
 * buffer — a reader asking for many quantiles calls seal() once
 * ingestion is done to sort in place and make later reads copy-free.
 */
class SampleSet
{
  public:
    /** Capacity that keeps the moments only: no samples, no RNG. */
    static constexpr std::size_t kMomentsOnly = 0;

    /**
     * @param capacity maximum retained samples before reservoir mode,
     *        or kMomentsOnly.
     * @param seed reservoir RNG stream; the default keeps historical
     *        sampling behaviour, tests vary it to exercise algorithm
     *        R's uniformity across streams.
     */
    explicit SampleSet(std::size_t capacity = 1u << 20,
                       std::uint64_t seed = 0xC0FFEE123456789ULL);

    /** Record one sample. */
    void add(double x);

    /**
     * Pre-reserve retained-sample storage (clamped to the capacity).
     * Long-lived serving loops call this up front so ingestion never
     * reallocates in steady state; batch runs skip it to keep sweep
     * memory proportional to actual sample counts.
     */
    void reserve(std::size_t n);

    /** Sort the retained samples in place (after ingestion ends). */
    void seal();

    /** Number of samples *offered* (not necessarily retained). */
    std::uint64_t count() const { return count_; }

    /** True when no samples have been offered. */
    bool empty() const { return count_ == 0; }

    /** Running mean over all offered samples. */
    double mean() const;

    /** Min / max over all offered samples (0 when empty). */
    double minSeen() const { return count_ ? min_ : 0.0; }
    double maxSeen() const { return count_ ? max_ : 0.0; }

    /**
     * Quantile q in [0, 1] over retained samples (exact below capacity,
     * reservoir-approximate above). q = 0.5 gives the median. Fatal on
     * a moments-only set, which has no order statistics to give.
     */
    double quantile(double q) const;

    /** Convenience: quantile(0.90). */
    double p90() const { return quantile(0.90); }
    /** Convenience: quantile(0.99). */
    double p99() const { return quantile(0.99); }

    /** Standard deviation over all offered samples. */
    double stddev() const;

    /** Discard everything. */
    void clear();

  private:
    std::size_t capacity_;
    std::vector<double> samples_;
    bool sorted_ = true;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    sim::Rng rng_;
};

/**
 * Quantile q in [0, 1] of @p n >= 1 sorted values: the linear
 * interpolation between order statistics floor(q (n - 1)) and the
 * next, the one definition SampleSet, serve's SLO window and its
 * steady-state median share. Reads only those two positions.
 */
double sortedQuantile(const double *sorted, std::size_t n, double q);

} // namespace stats
} // namespace idp

#endif // IDP_STATS_SAMPLER_HH
