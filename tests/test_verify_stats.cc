/**
 * @file
 * Property tests for the statistics layer the verification harness
 * (and every figure) leans on: SampleSet::quantile against an exact
 * sorted reference, selection against the sealed sort bit for bit,
 * moments-only sets against retaining ones, Histogram::quantile/
 * cdfSeries sanity under degenerate inputs, reservoir uniformity of
 * algorithm R, and thread-safety of concurrent const reads (run
 * under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"

namespace {

using namespace idp;
using stats::Histogram;
using stats::SampleSet;

/** Exact linear-interpolated quantile of an explicit sample list. */
double
referenceQuantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// ---------------------------------------------------------------
// SampleSet::quantile vs the exact reference.
// ---------------------------------------------------------------

TEST(SampleSetQuantile, MatchesSortedReferenceBelowCapacity)
{
    sim::Rng rng(0x5A11);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.uniformInt(200ULL);
        SampleSet s;
        std::vector<double> raw;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = rng.uniform(-50.0, 50.0);
            s.add(x);
            raw.push_back(x);
        }
        for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0})
            EXPECT_DOUBLE_EQ(s.quantile(q), referenceQuantile(raw, q))
                << "n=" << n << " q=" << q;
    }
}

TEST(SampleSetQuantile, DegenerateInputs)
{
    SampleSet empty;
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);

    SampleSet one;
    one.add(42.5);
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 42.5);

    // q = 0 and q = 1 are the extremes exactly.
    SampleSet s;
    for (double x : {3.0, 1.0, 2.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
}

TEST(SampleSetQuantile, SealDoesNotChangeAnswers)
{
    sim::Rng rng(0x5EA1);
    SampleSet s;
    std::vector<double> raw;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        s.add(x);
        raw.push_back(x);
    }
    const double before = s.quantile(0.9);
    s.seal();
    EXPECT_DOUBLE_EQ(s.quantile(0.9), before);
    EXPECT_DOUBLE_EQ(s.quantile(0.9), referenceQuantile(raw, 0.9));
    // Adding after seal still works.
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 2.0);
}

/** The bits of @p x, so equality means bit-for-bit equality. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(SampleSetQuantile, SelectionMatchesSealedBitForBit)
{
    // An unsealed set answers by selection (nth_element, then the
    // minimum above it); a sealed one reads its sorted buffer. Both
    // must give the same bits for every order statistic, including
    // runs of duplicates, where a selection bug would pick a
    // neighbour of equal rank but different value.
    sim::Rng rng(0x5E1EC7);
    const auto draw = [&rng](int kind) {
        switch (kind) {
          case 0: // continuous
            return rng.uniform(0.0, 80.0);
          case 1: // few distinct values, many duplicates
            return 0.5 * static_cast<double>(rng.uniformInt(4ULL));
          case 2: // one value
            return 7.25;
          default: // mostly one value with rare outliers
            return rng.chance(0.05) ? rng.uniform(100.0, 200.0) : 3.0;
        }
    };
    for (int kind = 0; kind < 4; ++kind) {
        for (std::size_t n : {1u, 2u, 3u, 1000u}) {
            SampleSet unsealed;
            SampleSet sealed;
            for (std::size_t i = 0; i < n; ++i) {
                const double x = draw(kind);
                unsealed.add(x);
                sealed.add(x);
            }
            sealed.seal();
            std::vector<double> qs = {0.9, 0.99, 1.0};
            for (std::size_t i = 0; i < n; ++i)
                qs.push_back(n > 1 ? static_cast<double>(i) /
                                         static_cast<double>(n - 1)
                                   : 0.0);
            for (double q : qs)
                ASSERT_EQ(bits(unsealed.quantile(q)),
                          bits(sealed.quantile(q)))
                    << "kind=" << kind << " n=" << n << " q=" << q;
        }
    }
}

TEST(SampleSetMoments, MomentsOnlyMatchesRetainingSet)
{
    // The moments never depend on what a set retains: a moments-only
    // set and a small reservoir (so algorithm R's replacement path
    // runs) fed one stream agree bit for bit.
    sim::Rng rng(0x303E);
    for (std::size_t n : {0u, 1u, 2u, 37u, 5000u}) {
        SampleSet moments(SampleSet::kMomentsOnly);
        SampleSet kept(16);
        for (std::size_t i = 0; i < n; ++i) {
            const double x = rng.uniform(-20.0, 60.0);
            moments.add(x);
            kept.add(x);
        }
        EXPECT_EQ(moments.count(), kept.count()) << "n=" << n;
        EXPECT_EQ(moments.empty(), kept.empty()) << "n=" << n;
        EXPECT_EQ(bits(moments.mean()), bits(kept.mean())) << "n=" << n;
        EXPECT_EQ(bits(moments.stddev()), bits(kept.stddev()))
            << "n=" << n;
        EXPECT_EQ(bits(moments.minSeen()), bits(kept.minSeen()))
            << "n=" << n;
        EXPECT_EQ(bits(moments.maxSeen()), bits(kept.maxSeen()))
            << "n=" << n;
    }
}

TEST(SampleSetMoments, QuantileOfMomentsOnlySetIsFatal)
{
    // No silent 0: a set that keeps no samples has no order
    // statistics, empty or not.
    SampleSet empty(SampleSet::kMomentsOnly);
    EXPECT_DEATH(empty.quantile(0.5), "keeps moments only");
    SampleSet s(SampleSet::kMomentsOnly);
    for (double x : {1.0, 2.0, 3.0})
        s.add(x);
    s.reserve(1024);
    s.seal();
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DEATH(s.quantile(0.5), "keeps moments only");
}

TEST(SampleSetQuantile, ConcurrentConstReadsAreSafe)
{
    // Regression for a const_cast sort inside the const quantile():
    // two threads reading the same unsealed set raced on the sample
    // buffer. Run under TSan this test pins the fix.
    SampleSet s;
    sim::Rng rng(0xC0C0);
    for (int i = 0; i < 20000; ++i)
        s.add(rng.uniform(0.0, 100.0));

    const double expected = s.quantile(0.5);
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                if (s.quantile(0.5) != expected ||
                    s.p90() < s.quantile(0.5))
                    mismatch = true;
            }
        });
    }
    for (auto &t : readers)
        t.join();
    EXPECT_FALSE(mismatch.load());
}

// ---------------------------------------------------------------
// Reservoir uniformity: algorithm R must retain each offered sample
// with equal probability once the stream exceeds capacity.
// ---------------------------------------------------------------

TEST(SampleSetReservoir, AlgorithmRIsUniform)
{
    // Feed 0..N-1 into a capacity-C reservoir across many independent
    // RNG streams; each value must be retained ~C/N of the time. The
    // retained values are recovered as the C order statistics
    // (quantile at k/(C-1) hits sorted slot k exactly), so decile
    // counts are independent across streams and a chi-square test
    // applies: 9 dof, 0.999 quantile 27.9 — a seeded run sits far
    // below unless the reservoir is biased.
    const std::size_t capacity = 64;
    const int n = 1024;
    const int streams = 400;
    std::vector<std::uint64_t> kept(10, 0);
    double value_sum = 0.0;
    for (int t = 0; t < streams; ++t) {
        SampleSet s(capacity, 0x9E3779B97F4A7C15ULL +
                        static_cast<std::uint64_t>(t));
        for (int i = 0; i < n; ++i)
            s.add(static_cast<double>(i));
        s.seal();
        for (std::size_t k = 0; k < capacity; ++k) {
            const double v = s.quantile(
                static_cast<double>(k) /
                static_cast<double>(capacity - 1));
            value_sum += v;
            const int decile = std::min(
                9, static_cast<int>(v / (n / 10.0)));
            ++kept[static_cast<std::size_t>(decile)];
        }
    }
    double total = 0.0;
    for (auto k : kept)
        total += static_cast<double>(k);
    const double expected_per_bin = total / 10.0;
    double chi2 = 0.0;
    for (auto k : kept) {
        const double d = static_cast<double>(k) - expected_per_bin;
        chi2 += d * d / expected_per_bin;
    }
    EXPECT_LT(chi2, 27.9) << "reservoir retention is not uniform";

    // Mean retained value matches the stream mean (unbiasedness);
    // the SE over streams*capacity draws is ~2, so 10 is generous.
    EXPECT_NEAR(value_sum / total, (n - 1) / 2.0, 10.0);
}

// ---------------------------------------------------------------
// Histogram::quantile / cdfSeries properties.
// ---------------------------------------------------------------

TEST(HistogramQuantile, EmptySingleAndExtremes)
{
    Histogram h = stats::makeResponseHistogram();
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);

    h.add(7.5);
    // A single sample: every quantile lands inside its bucket
    // (5, 10] and never outside the observed range.
    for (double q : {0.0, 0.5, 1.0}) {
        EXPECT_GE(h.quantile(q), 5.0);
        EXPECT_LE(h.quantile(q), 10.0);
    }
}

TEST(HistogramQuantile, AllSamplesInOverflowBucket)
{
    Histogram h = stats::makeResponseHistogram();
    h.add(500.0);
    h.add(700.0);
    h.add(900.0);
    // The overflow bucket has no upper edge: quantiles interpolate
    // between the last edge and the observed max, monotonically.
    EXPECT_GE(h.quantile(0.0), 200.0);
    EXPECT_LE(h.quantile(1.0), 900.0);
    EXPECT_LE(h.quantile(0.3), h.quantile(0.9));
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);
}

TEST(HistogramQuantile, MonotoneAndBucketConsistentOnRandomData)
{
    sim::Rng rng(0x415C);
    Histogram h = stats::makeResponseHistogram();
    std::vector<double> raw;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.uniform(0.0, 250.0);
        h.add(x);
        raw.push_back(x);
    }
    double prev = h.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
        prev = v;
    }
    // Bucketed quantiles agree with the exact reference to within
    // one bucket width.
    for (double q : {0.25, 0.5, 0.9}) {
        const double exact = referenceQuantile(raw, q);
        const double approx = h.quantile(q);
        EXPECT_NEAR(approx, exact, 40.0) << "q=" << q;
    }
}

TEST(HistogramCdf, SeriesIsMonotoneEndsAtOneAndMatchesCounts)
{
    sim::Rng rng(0xCDF1);
    Histogram h = stats::makeResponseHistogram();
    for (int i = 0; i < 2000; ++i)
        h.add(rng.uniform(0.0, 300.0));

    const auto series = h.cdfSeries(999.0);
    ASSERT_EQ(series.size(), h.buckets());
    double prev = 0.0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        cum += h.count(i);
        EXPECT_GE(series[i].second, prev);
        EXPECT_DOUBLE_EQ(series[i].second,
                         static_cast<double>(cum) /
                             static_cast<double>(h.total()));
        prev = series[i].second;
    }
    EXPECT_DOUBLE_EQ(series.back().second, 1.0);
    EXPECT_DOUBLE_EQ(series.back().first, 999.0);
}

TEST(HistogramCdf, EmptySeriesIsAllZeros)
{
    const Histogram h = stats::makeResponseHistogram();
    const auto series = h.cdfSeries(999.0);
    ASSERT_EQ(series.size(), h.buckets());
    for (const auto &[edge, frac] : series)
        EXPECT_EQ(frac, 0.0);
}

} // namespace
