#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

extern char **environ;

namespace idp {
namespace perfbench {

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(std::string_view s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
}

void
addHistogram(Digest &d, const stats::Histogram &h)
{
    d.add(static_cast<std::uint64_t>(h.buckets()));
    for (std::size_t i = 0; i < h.buckets(); ++i)
        d.add(h.count(i));
    d.add(h.total());
    d.add(h.sum());
    d.add(h.minSeen());
    d.add(h.maxSeen());
}

void
addSampleSet(Digest &d, const stats::SampleSet &s, std::uint64_t ladder)
{
    d.add(s.count());
    d.add(s.mean());
    d.add(s.stddev());
    d.add(s.minSeen());
    d.add(s.maxSeen());
    if (s.empty())
        return;
    const std::uint64_t n = ladder == kEverySample ? s.count() : ladder;
    for (std::uint64_t i = 0; i < n; ++i)
        d.add(s.quantile(n > 1 ? static_cast<double>(i) /
                                     static_cast<double>(n - 1)
                               : 0.0));
}

void
addPower(Digest &d, const power::PowerBreakdown &p)
{
    for (double e : p.energyJ)
        d.add(e);
    d.add(p.totalEnergyJ);
    d.add(p.wallSeconds);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<std::string>
refusedVariables(const std::vector<std::string> &environ_entries)
{
    // Families match by prefix, the rest by exact name. Each one is
    // read somewhere in the library and changes behaviour or run size.
    static const char *const kFamilies[] = {
        "IDP_PDES",     "IDP_GOVERNOR", "IDP_REBUILD_",
        "IDP_SERVE_",   "IDP_TRACE",
    };
    static const char *const kExact[] = {
        "IDP_REPLICA", "IDP_SCHED_PRUNE", "IDP_VERIFY",
        "IDP_THREADS", "IDP_REQUESTS",    "IDP_SCALE",
    };
    std::vector<std::string> refused;
    for (const std::string &entry : environ_entries) {
        const std::string name = entry.substr(0, entry.find('='));
        bool bad = false;
        for (const char *family : kFamilies)
            bad = bad || name.rfind(family, 0) == 0;
        for (const char *exact : kExact)
            bad = bad || name == exact;
        if (bad)
            refused.push_back(name);
    }
    std::sort(refused.begin(), refused.end());
    return refused;
}

std::vector<std::string>
processEnvironment()
{
    std::vector<std::string> out;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e)
        out.emplace_back(*e);
    return out;
}

bool
tailReportable(double q, std::uint64_t samples)
{
    // Samples strictly beyond the q-quantile's rank: n * (1 - q),
    // rounded to guard against 0.99-style binary fractions.
    const double beyond =
        std::round(static_cast<double>(samples) * (1.0 - q) * 1e6) /
        1e6;
    return beyond >= 10.0;
}

double
highestReportableQuantile(std::uint64_t samples)
{
    double best = 0.0;
    for (double q = 0.9; q < 1.0 && tailReportable(q, samples);
         q = 1.0 - (1.0 - q) / 10.0)
        best = q;
    return best;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

SpanLog::SpanLog() : origin_(nowSeconds()) {}

int
SpanLog::open(std::string name, int parent)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.begin = nowSeconds() - origin_;
    s.end = s.begin;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = nowSeconds() - origin_;
}

std::vector<double>
SpanLog::durations(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.begin);
    return out;
}

void
SpanLog::absorb(const SpanLog &other)
{
    const int base = static_cast<int>(spans_.size());
    const double shift = other.origin_ - origin_;
    for (Span s : other.spans_) {
        s.parent = s.parent < 0 ? -1 : s.parent + base;
        s.begin += shift;
        s.end += shift;
        spans_.push_back(std::move(s));
    }
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"begin_s\": %.9f, \"end_s\": %.9f}%s\n",
                     i, s.name.c_str(), s.parent, s.begin, s.end,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

std::string
Outcome::toText(double v)
{
    return jsonNumber(v);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
} // namespace idp
