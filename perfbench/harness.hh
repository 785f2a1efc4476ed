/**
 * @file
 * Workload-independent pieces of the repository benchmark: the result
 * digest, the environment refusal, the percentile/sample-count rule,
 * host-time spans, and the metric records a run prints.
 */

#ifndef IDP_PERFBENCH_HARNESS_HH
#define IDP_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "power/power_model.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"

namespace idp {
namespace perfbench {

// ---------------------------------------------------------------
// Result digest
// ---------------------------------------------------------------

/** FNV-1a (64-bit) over the exact bit patterns of result values. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::string_view s);

    std::uint64_t value() const { return h_; }

  private:
    void bytes(const void *p, std::size_t n);

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Every bucket count plus total, sum, min and max. */
void addHistogram(Digest &d, const stats::Histogram &h);

/** addSampleSet ladder that steps through every order statistic. */
constexpr std::uint64_t kEverySample = ~std::uint64_t{0};

/**
 * Count, mean, stddev, min, max and @p ladder evenly spaced quantiles
 * (q = 0 .. 1). With kEverySample the ladder has count() points: below
 * the reservoir capacity every offered sample is retained, so each
 * lands on one order statistic and a change to any single sample
 * changes the digest. Each quantile of an unsealed set sorts a copy,
 * so pass 0 for those.
 */
void addSampleSet(Digest &d, const stats::SampleSet &s,
                  std::uint64_t ladder);

/** Per-mode energy, total energy and wall seconds. */
void addPower(Digest &d, const power::PowerBreakdown &p);

/** Digest rendered as 16 hex digits. */
std::string hex(std::uint64_t v);

// ---------------------------------------------------------------
// Environment refusal
// ---------------------------------------------------------------

/**
 * Names of the IDP_* variables among @p environ_entries ("NAME=value")
 * that change what the library simulates or how large a run is; the
 * benchmark refuses to run while any is set.
 */
std::vector<std::string>
refusedVariables(const std::vector<std::string> &environ_entries);

/** The process environment as "NAME=value" entries. */
std::vector<std::string> processEnvironment();

// ---------------------------------------------------------------
// Percentiles and summaries
// ---------------------------------------------------------------

/** True when quantile @p q of @p samples values has at least ten
 *  samples beyond it (the reporting rule for tail latencies). */
bool tailReportable(double q, std::uint64_t samples);

/** Highest quantile of the form 1 - 10^-k (0.9, 0.99, 0.999, ...)
 *  that tailReportable() allows for @p samples; 0 if none. */
double highestReportableQuantile(std::uint64_t samples);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

// ---------------------------------------------------------------
// Host time
// ---------------------------------------------------------------

/** Steady-clock seconds since an arbitrary epoch. */
double nowSeconds();

/** Peak resident set of this process, MB. */
double peakRssMb();

/**
 * In-memory host-time spans recorded around the benchmark's calls into
 * each layer; written out once the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double begin = 0.0; ///< seconds since the log was created
        double end = 0.0;
    };

    SpanLog();

    /** Open a span under @p parent (-1 = top level); returns its id. */
    int open(std::string name, int parent = -1);
    void close(int id);

    /** Durations of every closed span named @p name, in order. */
    std::vector<double> durations(std::string_view name) const;

    /** Append @p other's spans, on this log's time origin. */
    void absorb(const SpanLog &other);

    /** Write the spans as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    double origin_;
    std::vector<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int parent = -1)
        : log_(log), id_(log.open(std::move(name), parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

// ---------------------------------------------------------------
// What one run reports
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The resolved knobs every workload receives explicitly. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Sweep threads (paper_sweep) and PDES workers (mirror_rebuild). */
    unsigned threads = 1;
    unsigned workers = 1;
    /** Where the traced pass writes its host-time spans ("" = none). */
    std::string spanOut;
};

struct Outcome
{
    /** Header rows: the full resolved configuration of the run. */
    std::vector<std::pair<std::string, std::string>> config;
    /** End-to-end metrics (untraced runs). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced runs). */
    std::vector<Metric> perLayer;
    /** Logical requests the timed region issued. */
    std::uint64_t attempted = 0;
    /** Requests lost or left without a result (must stay 0). */
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    /** Correctness-gate failures; any entry makes the run incorrect. */
    std::vector<std::string> errors;

    template <typename T>
    void
    note(const std::string &key, const T &value)
    {
        config.emplace_back(key, toText(value));
    }

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }

    /** Fail the gate on any invariant-checker violation. */
    void checkClean(const std::vector<std::string> &violations,
                    const std::string &tag)
    {
        if (!violations.empty())
            errors.push_back(tag + ": " +
                             std::to_string(violations.size()) +
                             " invariant violations, first: " +
                             violations.front());
    }

  private:
    static std::string toText(const std::string &v) { return v; }
    static std::string toText(const char *v) { return v; }
    static std::string toText(bool v) { return v ? "true" : "false"; }
    static std::string toText(double v);
    template <typename T>
    static std::string
    toText(T v)
    {
        return std::to_string(v);
    }
};

/** Print the JSON number @p v with every digit (%.17g; finite only). */
std::string jsonNumber(double v);

} // namespace perfbench
} // namespace idp

#endif // IDP_PERFBENCH_HARNESS_HH
