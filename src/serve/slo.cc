#include "serve/slo.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/sampler.hh"

namespace idp {
namespace serve {

SloWindow::SloWindow(std::uint32_t window_samples)
{
    sim::simAssert(window_samples > 0,
                   "SloWindow: window must hold at least one sample");
    ring_.resize(window_samples);
    scratch_.resize(window_samples);
}

void
SloWindow::record(double ms)
{
    ring_[head_] = ms;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    filled_ = std::min(filled_ + 1, ring_.size());
    ++total_;
}

void
SloWindow::clear()
{
    head_ = 0;
    filled_ = 0;
    total_ = 0;
}

std::size_t
SloWindow::fillScratch() const
{
    std::copy_n(ring_.begin(), filled_, scratch_.begin());
    std::sort(scratch_.begin(), scratch_.begin() + filled_);
    return filled_;
}

double
SloWindow::quantile(double q) const
{
    sim::simAssert(q >= 0.0 && q <= 1.0, "SloWindow: bad quantile");
    if (filled_ == 0)
        return 0.0;
    const std::size_t n = fillScratch();
    return stats::sortedQuantile(scratch_.data(), n, q);
}

void
SloWindow::quantiles(double &p50, double &p99) const
{
    if (filled_ == 0) {
        p50 = p99 = 0.0;
        return;
    }
    const std::size_t n = fillScratch();
    p50 = stats::sortedQuantile(scratch_.data(), n, 0.50);
    p99 = stats::sortedQuantile(scratch_.data(), n, 0.99);
}

} // namespace serve
} // namespace idp
