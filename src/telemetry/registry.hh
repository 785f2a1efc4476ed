/**
 * @file
 * Named metrics registry: module counts, gauges, and histograms.
 *
 * The registry reads counts instead of receiving them. A module
 * exposes the stats fields it already keeps, by name, to the registry
 * that is current when it is built (CountSource::expose); snapshot()
 * and snapshotDelta() sum every exposed field per name when called,
 * so a count that is the sum of two fields is two rows. A module
 * destroyed before its registry leaves its final counts behind, so no
 * total ever falls. The request path therefore does one plain
 * increment per fact, with or without a registry installed.
 *
 * One Registry belongs to one simulation run; core::runTrace installs
 * it for the duration of the run via RegistryScope and snapshots it
 * into RunResult afterwards, so sweep points tracing on different
 * threads never share a registry and the snapshot order (sorted by
 * name) is deterministic.
 *
 * Module code reaches the current registry through
 * telemetry::activeRegistry() (telemetry/telemetry.hh), which is
 * constexpr null when the subsystem is disabled at build time
 * (IDP_TELEMETRY=0).
 */

#ifndef IDP_TELEMETRY_REGISTRY_HH
#define IDP_TELEMETRY_REGISTRY_HH

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace idp {
namespace telemetry {

/** Point-in-time measurement. */
struct Gauge
{
    double value = 0.0;

    void set(double v) { value = v; }
};

/** One flattened metric row of a snapshot. */
struct MetricSample
{
    std::string name;
    double value = 0.0;
};

/** One exposed count field. Rows that share a name are summed, within
 *  a source as across sources. */
struct CountRow
{
    const char *name;
    const std::uint64_t *field;
};

class Registry;

/**
 * The counts one module exposes to one registry. Its rows point into
 * the owning object, so a CountSource is neither copyable nor movable
 * (and neither is its owner). Destroying it retires the rows: their
 * final values stay in the registry's totals. A registry destroyed
 * first detaches it.
 */
class CountSource
{
  public:
    CountSource() = default;
    ~CountSource();

    CountSource(const CountSource &) = delete;
    CountSource &operator=(const CountSource &) = delete;

    /** Expose @p rows to @p registry; nothing when it is null. Call
     *  once, when the owner is built. */
    void expose(Registry *registry, std::initializer_list<CountRow> rows);

  private:
    friend class Registry;

    Registry *registry_ = nullptr;
    std::vector<CountRow> rows_;
};

class Registry
{
  public:
    Registry() = default;
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find-or-create; the returned reference stays valid. */
    Gauge &gauge(const std::string &name);

    /**
     * Find-or-create a histogram with the given bucket upper edges;
     * the edges of an existing histogram are left untouched.
     */
    stats::Histogram &histogram(const std::string &name,
                                const std::vector<double> &upper_edges);

    /** Convenience: gauge(name).set(v). */
    void setGauge(const std::string &name, double v);

    /**
     * Flatten every metric into (name, value) rows sorted by name.
     * Counts sum every live and retired source per name; histograms
     * expand to <name>.count / <name>.mean / <name>.max.
     */
    std::vector<MetricSample> snapshot() const;

    /**
     * Delta snapshot for long-lived serving runs: counts report the
     * increase since the previous snapshotDelta() call (the first call
     * reports the cumulative value), histograms report the interval's
     * .count and .mean (derived from count/sum baselines; .max stays
     * cumulative — a maximum cannot be rewound without resetting the
     * histogram), and gauges stay point-in-time. Rows are sorted by
     * name, like snapshot(). The baselines advance only here, so
     * interleaved cumulative snapshot() calls do not perturb the delta
     * stream.
     */
    std::vector<MetricSample> snapshotDelta();

    /** Write the snapshot as a two-column CSV ("metric,value"). */
    void writeCsv(std::ostream &os) const;

    /** The registry installed on this thread (null when none). */
    static Registry *current() { return current_; }

  private:
    friend class RegistryScope;
    friend class CountSource;

    static inline thread_local Registry *current_ = nullptr;

    /** Every count by name: live sources plus retired totals. */
    std::map<std::string, std::uint64_t> counts() const;
    /** Fold @p source's final values into retired_ and forget it. */
    void retire(CountSource *source);

    std::vector<CountSource *> sources_;
    std::map<std::string, std::uint64_t> retired_;
    // std::map keeps iteration deterministic and node addresses
    // stable, so references handed out by gauge()/histogram()
    // survive later registrations.
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, stats::Histogram> histograms_;

    /** snapshotDelta baselines: last-reported counts and histogram
     *  (count, sum) pairs, keyed like the metric maps. */
    std::map<std::string, std::uint64_t> countBase_;
    std::map<std::string, std::pair<std::uint64_t, double>> histBase_;
};

/** Installs a Registry as this thread's current one (RAII). */
class RegistryScope
{
  public:
    explicit RegistryScope(Registry *registry)
        : prev_(Registry::current_)
    {
        Registry::current_ = registry;
    }
    ~RegistryScope() { Registry::current_ = prev_; }

    RegistryScope(const RegistryScope &) = delete;
    RegistryScope &operator=(const RegistryScope &) = delete;

  private:
    Registry *prev_;
};

/** Write any snapshot as CSV (used by RunResult exports). */
void writeMetricsCsv(std::ostream &os,
                     const std::vector<MetricSample> &metrics);

} // namespace telemetry
} // namespace idp

#endif // IDP_TELEMETRY_REGISTRY_HH
