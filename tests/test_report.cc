/**
 * @file
 * Report-rendering tests: the bench output helpers must produce the
 * paper's rows (bucket labels, mode columns) and consistent values.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/csv_export.hh"
#include "core/report.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

core::RunResult
smallRun()
{
    workload::SyntheticParams wp;
    wp.requests = 1500;
    wp.meanInterArrivalMs = 6.0;
    wp.addressSpaceSectors = 1000000;
    const auto trace = workload::generateSynthetic(wp);
    const auto config = core::makeRaid0System(
        "sys-a", disk::enterpriseDrive(2.0, 10000, 2), 1);
    return core::runTrace(trace, config);
}

TEST(Report, ResponseCdfHasPaperBuckets)
{
    std::ostringstream os;
    core::printResponseCdf(os, "t", {smallRun()});
    const std::string out = os.str();
    for (const char *label : {"5", "10", "20", "40", "60", "90", "120",
                              "150", "200", "200+"})
        EXPECT_NE(out.find(label), std::string::npos) << label;
    EXPECT_NE(out.find("sys-a"), std::string::npos);
}

TEST(Report, ResponseCdfEndsAtOne)
{
    std::ostringstream os;
    core::printResponseCdf(os, "t", {smallRun()});
    // The 200+ row must read 1.000 for a drained run.
    const std::string out = os.str();
    const auto pos = out.find("200+");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_NE(out.find("1.000", pos), std::string::npos);
}

TEST(Report, RotPdfRowsSumToOne)
{
    const core::RunResult r = smallRun();
    double sum = 0.0;
    for (std::size_t b = 0; b < r.rotHist.buckets(); ++b)
        sum += r.rotHist.pdfAt(b);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    std::ostringstream os;
    core::printRotPdf(os, "t", {r});
    EXPECT_NE(os.str().find("more"), std::string::npos);
}

TEST(Report, PowerColumnsSumToTotal)
{
    const core::RunResult r = smallRun();
    const double sum = r.power.modeAvgW(stats::DiskMode::Idle) +
        r.power.modeAvgW(stats::DiskMode::Seek) +
        r.power.modeAvgW(stats::DiskMode::RotWait) +
        r.power.modeAvgW(stats::DiskMode::Transfer);
    EXPECT_NEAR(sum, r.power.totalAvgW(), 1e-9);
    std::ostringstream os;
    core::printPowerBreakdown(os, "t", {r});
    EXPECT_NE(os.str().find("Total(W)"), std::string::npos);
}

TEST(Report, SummaryContainsHeadline)
{
    std::ostringstream os;
    core::printSummary(os, "headline", {smallRun()});
    const std::string out = os.str();
    EXPECT_NE(out.find("headline"), std::string::npos);
    EXPECT_NE(out.find("P90(ms)"), std::string::npos);
    EXPECT_NE(out.find("AvgPower(W)"), std::string::npos);
    EXPECT_NE(out.find("NonzeroSeek"), std::string::npos);
}

TEST(Report, MultipleSystemsSideBySide)
{
    core::RunResult a = smallRun();
    core::RunResult b = a;
    b.system = "sys-b";
    std::ostringstream os;
    core::printResponseCdf(os, "t", {a, b});
    const std::string out = os.str();
    EXPECT_NE(out.find("sys-a"), std::string::npos);
    EXPECT_NE(out.find("sys-b"), std::string::npos);
}

TEST(Csv, FilesWrittenAndShaped)
{
    const core::RunResult r = smallRun();
    const std::string dir = ::testing::TempDir();
    core::writeCdfCsv(dir + "/t_cdf.csv", {r});
    core::writeRotPdfCsv(dir + "/t_rot.csv", {r});
    core::writeSummaryCsv(dir + "/t_sum.csv", {r});

    std::ifstream cdf(dir + "/t_cdf.csv");
    std::string header, line;
    ASSERT_TRUE(std::getline(cdf, header));
    EXPECT_EQ(header, "edge_ms,sys-a");
    std::size_t rows = 0;
    while (std::getline(cdf, line))
        ++rows;
    EXPECT_EQ(rows, 10u); // 9 edges + overflow

    std::ifstream sum(dir + "/t_sum.csv");
    ASSERT_TRUE(std::getline(sum, header));
    EXPECT_NE(header.find("total_w"), std::string::npos);
    ASSERT_TRUE(std::getline(sum, line));
    EXPECT_EQ(line.rfind("sys-a,", 0), 0u);
}

TEST(Csv, MaybeExportHonoursEnv)
{
    const core::RunResult r = smallRun();
    EXPECT_FALSE(core::maybeExportCsv(config::resolveEnv({}).csvDir,
                                      "nope", {r}));
    const std::string dir = ::testing::TempDir();
    const config::Env env = config::resolveEnv({"IDP_CSV_DIR=" + dir});
    EXPECT_TRUE(core::maybeExportCsv(env.csvDir, "yep", {r}));
    std::ifstream check(dir + "/yep_summary.csv");
    EXPECT_TRUE(check.good());
}

TEST(Report, EmptyResultListSafe)
{
    std::ostringstream os;
    core::printResponseCdf(os, "t", {});
    core::printRotPdf(os, "t", {});
    core::printPowerBreakdown(os, "t", {});
    core::printSummary(os, "t", {});
    core::printAttribution(os, "t", {});
    SUCCEED();
}

TEST(Report, AttributionSkipsUntracedResults)
{
    // A default RunResult has no trace; the table must render anyway
    // and say why it is empty.
    core::RunResult untraced;
    untraced.system = "plain";
    std::ostringstream os;
    core::printAttribution(os, "t", {untraced});
    EXPECT_NE(os.str().find("untraced"), std::string::npos);
}

TEST(Report, SingleSampleHistogramRendersAndSumsToOne)
{
    core::RunResult r;
    r.system = "one";
    r.responseHist.add(7.0);
    r.rotHist.add(3.2);
    double sum = 0.0;
    for (std::size_t b = 0; b < r.rotHist.buckets(); ++b)
        sum += r.rotHist.pdfAt(b);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(
        r.responseHist.cdfAt(r.responseHist.buckets() - 1), 1.0, 1e-9);

    std::ostringstream os;
    core::printResponseCdf(os, "t", {r});
    core::printRotPdf(os, "t", {r});
    EXPECT_NE(os.str().find("one"), std::string::npos);
}

TEST(Report, SingleSampleQuantilesCollapseToTheSample)
{
    stats::SampleSet set;
    set.add(42.0);
    EXPECT_DOUBLE_EQ(set.p90(), 42.0);
    EXPECT_DOUBLE_EQ(set.p99(), 42.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(set.quantile(1.0), 42.0);
}

TEST(Report, QuantilesOnSparseCdfBuckets)
{
    // All mass in two distant buckets: p90/p99 must come from the
    // upper one, and the histogram quantile must stay inside its
    // containing bucket rather than interpolating across empty ones.
    stats::Histogram hist = stats::makeResponseHistogram();
    hist.add(1.0, 90);   // bucket <=5
    hist.add(130.0, 10); // bucket <=150
    const double q95 = hist.quantile(0.95);
    EXPECT_GT(q95, 120.0);
    EXPECT_LE(q95, 150.0);
    const double q50 = hist.quantile(0.50);
    EXPECT_LE(q50, 5.0);

    stats::SampleSet set;
    for (int i = 0; i < 90; ++i)
        set.add(1.0);
    for (int i = 0; i < 10; ++i)
        set.add(130.0);
    EXPECT_DOUBLE_EQ(set.p99(), 130.0);
    EXPECT_DOUBLE_EQ(set.quantile(0.5), 1.0);
}

TEST(Csv, EmptyResultListWritesHeadersOnly)
{
    std::ostringstream cdf, rot, sum, metrics;
    core::writeCdfCsv(cdf, {});
    core::writeRotPdfCsv(rot, {});
    core::writeSummaryCsv(sum, {});
    core::writeMetricsCsv(metrics, {});
    EXPECT_EQ(cdf.str(), "edge_ms\n");
    EXPECT_EQ(rot.str(), "edge_ms\n");
    EXPECT_EQ(sum.str().find('\n'), sum.str().size() - 1);
    EXPECT_EQ(metrics.str(), "system,metric,value\n");
}

} // namespace
