#include "telemetry/registry.hh"

#include <algorithm>
#include <ostream>

namespace idp {
namespace telemetry {

namespace {

void
sortByName(std::vector<MetricSample> &rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
}

} // namespace

CountSource::~CountSource()
{
    if (registry_ != nullptr)
        registry_->retire(this);
}

void
CountSource::expose(Registry *registry,
                    std::initializer_list<CountRow> rows)
{
    if (registry == nullptr)
        return;
    registry_ = registry;
    rows_.assign(rows);
    registry->sources_.push_back(this);
}

Registry::~Registry()
{
    for (CountSource *source : sources_)
        source->registry_ = nullptr;
}

void
Registry::retire(CountSource *source)
{
    for (const CountRow &row : source->rows_)
        retired_[row.name] += *row.field;
    sources_.erase(std::find(sources_.begin(), sources_.end(), source));
}

std::map<std::string, std::uint64_t>
Registry::counts() const
{
    std::map<std::string, std::uint64_t> out = retired_;
    for (const CountSource *source : sources_)
        for (const CountRow &row : source->rows_)
            out[row.name] += *row.field;
    return out;
}

Gauge &
Registry::gauge(const std::string &name)
{
    return gauges_[name];
}

stats::Histogram &
Registry::histogram(const std::string &name,
                    const std::vector<double> &upper_edges)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(name, stats::Histogram(upper_edges))
                 .first;
    return it->second;
}

void
Registry::setGauge(const std::string &name, double v)
{
    gauge(name).set(v);
}

std::vector<MetricSample>
Registry::snapshot() const
{
    const auto counts_now = counts();
    std::vector<MetricSample> out;
    out.reserve(counts_now.size() + gauges_.size() +
                histograms_.size() * 3);
    for (const auto &[name, n] : counts_now)
        out.push_back({name, static_cast<double>(n)});
    for (const auto &[name, g] : gauges_)
        out.push_back({name, g.value});
    for (const auto &[name, h] : histograms_) {
        out.push_back(
            {name + ".count", static_cast<double>(h.total())});
        out.push_back({name + ".mean", h.mean()});
        out.push_back({name + ".max", h.maxSeen()});
    }
    sortByName(out);
    return out;
}

std::vector<MetricSample>
Registry::snapshotDelta()
{
    const auto counts_now = counts();
    std::vector<MetricSample> out;
    out.reserve(counts_now.size() + gauges_.size() +
                histograms_.size() * 3);
    for (const auto &[name, n] : counts_now) {
        std::uint64_t &base = countBase_[name];
        out.push_back({name, static_cast<double>(n - base)});
        base = n;
    }
    for (const auto &[name, g] : gauges_)
        out.push_back({name, g.value});
    for (const auto &[name, h] : histograms_) {
        auto &[base_count, base_sum] = histBase_[name];
        const std::uint64_t dcount = h.total() - base_count;
        const double dsum = h.sum() - base_sum;
        out.push_back(
            {name + ".count", static_cast<double>(dcount)});
        out.push_back({name + ".mean",
                       dcount ? dsum / static_cast<double>(dcount)
                              : 0.0});
        out.push_back({name + ".max", h.maxSeen()});
        base_count = h.total();
        base_sum = h.sum();
    }
    sortByName(out);
    return out;
}

void
Registry::writeCsv(std::ostream &os) const
{
    writeMetricsCsv(os, snapshot());
}

void
writeMetricsCsv(std::ostream &os,
                const std::vector<MetricSample> &metrics)
{
    os << "metric,value\n";
    for (const auto &m : metrics)
        os << m.name << ',' << m.value << '\n';
}

} // namespace telemetry
} // namespace idp
