#include "core/csv_export.hh"

#include <fstream>
#include <ostream>

#include "sim/logging.hh"
#include "stats/table.hh"

namespace idp {
namespace core {

namespace {

std::ofstream
open(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open CSV file for writing: " + path);
    return os;
}

} // namespace

void
writeCdfCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    os << "edge_ms";
    for (const auto &r : results)
        os << ',' << r.system;
    os << '\n';
    if (results.empty())
        return;
    const std::size_t buckets = results.front().responseHist.buckets();
    for (std::size_t b = 0; b < buckets; ++b) {
        const double edge = results.front().responseHist.upperEdge(b);
        if (b + 1 < buckets)
            os << edge;
        else
            os << "inf";
        for (const auto &r : results)
            os << ',' << stats::fmt(r.responseHist.cdfAt(b), 6);
        os << '\n';
    }
}

void
writeCdfCsv(const std::string &path,
            const std::vector<RunResult> &results)
{
    std::ofstream os = open(path);
    writeCdfCsv(os, results);
}

void
writeRotPdfCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    os << "edge_ms";
    for (const auto &r : results)
        os << ',' << r.system;
    os << '\n';
    if (results.empty())
        return;
    const std::size_t buckets = results.front().rotHist.buckets();
    for (std::size_t b = 0; b < buckets; ++b) {
        const double edge = results.front().rotHist.upperEdge(b);
        if (b + 1 < buckets)
            os << edge;
        else
            os << "inf";
        for (const auto &r : results)
            os << ',' << stats::fmt(r.rotHist.pdfAt(b), 6);
        os << '\n';
    }
}

void
writeRotPdfCsv(const std::string &path,
               const std::vector<RunResult> &results)
{
    std::ofstream os = open(path);
    writeRotPdfCsv(os, results);
}

void
writeSummaryCsv(std::ostream &os,
                const std::vector<RunResult> &results)
{
    os << "system,requests,mean_ms,p90_ms,p99_ms,mean_rot_ms,iops,"
          "nonzero_seek,idle_w,seek_w,rot_w,transfer_w,total_w\n";
    for (const auto &r : results) {
        os << r.system << ',' << r.requests << ','
           << stats::fmt(r.meanResponseMs, 4) << ','
           << stats::fmt(r.p90ResponseMs, 4) << ','
           << stats::fmt(r.p99ResponseMs, 4) << ','
           << stats::fmt(r.meanRotMs, 4) << ','
           << stats::fmt(r.throughputIops, 2) << ','
           << stats::fmt(r.nonzeroSeekFraction, 4) << ','
           << stats::fmt(r.power.modeAvgW(stats::DiskMode::Idle), 4)
           << ','
           << stats::fmt(r.power.modeAvgW(stats::DiskMode::Seek), 4)
           << ','
           << stats::fmt(r.power.modeAvgW(stats::DiskMode::RotWait), 4)
           << ','
           << stats::fmt(r.power.modeAvgW(stats::DiskMode::Transfer),
                         4)
           << ',' << stats::fmt(r.power.totalAvgW(), 4) << '\n';
    }
}

void
writeSummaryCsv(const std::string &path,
                const std::vector<RunResult> &results)
{
    std::ofstream os = open(path);
    writeSummaryCsv(os, results);
}

void
writeMetricsCsv(std::ostream &os,
                const std::vector<RunResult> &results)
{
    os << "system,metric,value\n";
    for (const auto &r : results)
        for (const auto &m : r.metrics)
            os << r.system << ',' << m.name << ','
               << stats::fmt(m.value, 6) << '\n';
}

void
writeMetricsCsv(const std::string &path,
                const std::vector<RunResult> &results)
{
    std::ofstream os = open(path);
    writeMetricsCsv(os, results);
}

bool
maybeExportCsv(const std::string &dir, const std::string &stem,
               const std::vector<RunResult> &results)
{
    if (dir.empty())
        return false;
    const std::string base = dir + "/" + stem;
    writeCdfCsv(base + "_cdf.csv", results);
    writeRotPdfCsv(base + "_rotpdf.csv", results);
    writeSummaryCsv(base + "_summary.csv", results);
    maybeExportMetricsCsv(dir, stem, results);
    return true;
}

void
maybeExportMetricsCsv(const std::string &dir, const std::string &stem,
                      const std::vector<RunResult> &results)
{
    bool any_metrics = false;
    for (const auto &r : results)
        any_metrics = any_metrics || !r.metrics.empty();
    if (!dir.empty() && any_metrics)
        writeMetricsCsv(dir + "/" + stem + "_metrics.csv", results);
}

} // namespace core
} // namespace idp
