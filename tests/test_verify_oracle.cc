/**
 * @file
 * Run the analytic oracle suite: the full simulator must land within
 * the stated tolerance of every closed form. A failure here means the
 * model drifted, not that the run was noisy — every oracle is seeded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "config/env.hh"
#include "verify/oracle.hh"

namespace {

using namespace idp;

double
oracleScale()
{
    // IDP_SCALE trims oracle run lengths for smoke builds; the
    // tolerances are calibrated for the default scale of 1.
    return std::min(config::resolveEnv().scale, 1.0);
}

TEST(VerifyOracle, SimulatorMatchesClosedForms)
{
    const auto cases = verify::runAnalyticOracles(oracleScale());
    // One report for the log, individual expectations for triage.
    std::ostringstream report;
    verify::printOracleReport(report, cases);
    SCOPED_TRACE(report.str());

    ASSERT_GE(cases.size(), 12u);
    for (const auto &c : cases) {
        EXPECT_TRUE(c.pass)
            << c.name << ": expected " << c.expected << ", simulated "
            << c.simulated << " (error " << c.error() << " > tol "
            << c.tolerance << ")";
    }
    EXPECT_TRUE(verify::allPassed(cases));
}

TEST(VerifyOracle, ReportListsEveryCase)
{
    const auto cases = verify::runAnalyticOracles(0.02);
    std::ostringstream os;
    verify::printOracleReport(os, cases);
    for (const auto &c : cases)
        EXPECT_NE(os.str().find(c.name), std::string::npos) << c.name;
}

} // namespace
