#include "stats/sampler.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace idp {
namespace stats {

SampleSet::SampleSet(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed)
{
}

void
SampleSet::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sumSq_ += x * x;
    if (samples_.size() < capacity_) {
        samples_.push_back(x);
        sorted_ = false;
    } else if (capacity_ != kMomentsOnly) {
        // Vitter's algorithm R: replace a random slot with probability
        // capacity / count so retained samples stay uniform.
        const std::uint64_t j = rng_.uniformInt(count_);
        if (j < capacity_) {
            samples_[static_cast<std::size_t>(j)] = x;
            sorted_ = false;
        }
    }
}

void
SampleSet::reserve(std::size_t n)
{
    samples_.reserve(std::min(n, capacity_));
}

void
SampleSet::seal()
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleSet::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
SampleSet::quantile(double q) const
{
    sim::simAssert(q >= 0.0 && q <= 1.0, "SampleSet::quantile: bad q");
    if (capacity_ == kMomentsOnly)
        sim::fatal("SampleSet::quantile: this set keeps moments only "
                   "(count, mean, stddev, min, max), no samples to "
                   "take a quantile of");
    if (samples_.empty())
        return 0.0;
    const std::size_t n = samples_.size();
    if (sorted_)
        return sortedQuantile(samples_.data(), n, q);
    // A const read must not mutate: concurrent snapshot readers (the
    // sweep UI, telemetry exporters) may call this while other threads
    // read too, so an unsealed set selects within a local copy.
    // nth_element leaves order statistic lo at lo and only values no
    // smaller above it, so the smallest of those is order statistic
    // lo + 1; moved next to it, the copy holds the same two values a
    // sort would at the only positions sortedQuantile reads.
    std::vector<double> copy(samples_);
    const auto lo = static_cast<std::ptrdiff_t>(
        q * static_cast<double>(n - 1));
    const auto nth = copy.begin() + lo;
    std::nth_element(copy.begin(), nth, copy.end());
    if (nth + 1 != copy.end())
        std::iter_swap(nth + 1, std::min_element(nth + 1, copy.end()));
    return sortedQuantile(copy.data(), n, q);
}

double
sortedQuantile(const double *sorted, std::size_t n, double q)
{
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
SampleSet::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
SampleSet::clear()
{
    samples_.clear();
    sorted_ = true;
    count_ = 0;
    sum_ = sumSq_ = 0.0;
    min_ = max_ = 0.0;
}

} // namespace stats
} // namespace idp
