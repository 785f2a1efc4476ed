/**
 * @file
 * Energy-governor tests: control-law behaviour (step-down in lulls,
 * SLO-protecting step-up in bursts, actuator parking), environment
 * overrides, mode/energy conservation under governed runs, PDES
 * rejection, and a cross-PR determinism golden pinned at worker
 * counts 1 and 8.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "array/storage_array.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "exec/sim_sweep.hh"
#include "power/governor.hh"
#include "rig.hh"
#include "verify/invariant_checker.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using workload::IoRequest;

/** Fast control constants so tests converge in simulated seconds. */
power::GovernorParams
testGovernor()
{
    power::GovernorParams g;
    g.enabled = true;
    g.windowMs = 50.0;
    g.sloP99Ms = 80.0;
    g.guardFraction = 0.5;
    g.busyHigh = 0.5;
    g.busyLow = 0.2;
    g.minDwellMs = 200.0;
    g.rpmLevels = {7200, 5200, 4200};
    return g;
}

array::ArrayParams
governedArray(std::uint32_t actuators, const power::GovernorParams &g)
{
    array::ArrayParams p;
    p.layout = array::Layout::Raid0;
    p.disks = 1;
    p.drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), actuators);
    p.governor = g;
    return p;
}

using Harness = test::ArrayRig;

/** An 8-sector read of @p lba arriving at @p when; ids count the
 *  requests submitted so far. */
void
readAt(Harness &h, sim::Tick when, geom::Lba lba)
{
    IoRequest r;
    r.id = h.submitted;
    r.lba = lba;
    r.sectors = 8;
    r.isRead = true;
    h.submitAt(when, r);
}

/** One small random-ish read every @p gap_ms for @p span_ms. */
void
lightPhase(Harness &h, double start_ms, double span_ms, double gap_ms)
{
    for (double t = start_ms; t < start_ms + span_ms; t += gap_ms)
        readAt(h, sim::msToTicks(t),
               1000 + 97 * static_cast<geom::Lba>(h.submitted) * 4096 %
                   100000000);
}

/** A dense burst: @p count reads at @p gap_ms spacing. */
void
burstPhase(Harness &h, double start_ms, int count, double gap_ms)
{
    for (int i = 0; i < count; ++i)
        readAt(h, sim::msToTicks(start_ms + i * gap_ms),
               1000 + 131 * static_cast<geom::Lba>(h.submitted) * 4096 %
                   100000000);
}

TEST(Governor, StepsDownDuringSustainedLull)
{
    Harness h(governedArray(2, testGovernor()));
    lightPhase(h, 0.0, 3000.0, 100.0);
    h.simul.run();

    const power::Governor *gov = h.arr.governor();
    ASSERT_NE(gov, nullptr);
    EXPECT_GE(gov->stats().stepDowns, 2u);
    EXPECT_EQ(gov->stats().stepUps, 0u);
    // Light load all the way: the drive ends at the bottom level.
    EXPECT_EQ(h.arr.diskAt(0).currentRpm(), 4200u);
    EXPECT_GE(h.arr.diskAt(0).stats().rpmShifts, 2u);
    EXPECT_EQ(h.arr.stats().logicalCompletions,
              h.arr.stats().logicalArrivals);
}

TEST(Governor, BurstStepsBackUpAndEveryRequestCompletes)
{
    Harness h(governedArray(2, testGovernor()));
    lightPhase(h, 0.0, 2000.0, 100.0);
    // 400 arrivals at 1 ms: queueing blows past the 80 ms SLO and the
    // busy threshold; the governor must climb back toward 7200.
    burstPhase(h, 2500.0, 400, 1.0);
    h.simul.run();

    const power::Governor *gov = h.arr.governor();
    ASSERT_NE(gov, nullptr);
    EXPECT_GE(gov->stats().stepDowns, 1u);
    EXPECT_GE(gov->stats().stepUps, 1u);
    // No request is lost across ramps (they queue, never drop).
    EXPECT_EQ(h.arr.stats().logicalCompletions,
              h.arr.stats().logicalArrivals);
}

TEST(Governor, ParksSparesInLullAndUnparksOnBurst)
{
    power::GovernorParams g = testGovernor();
    g.parkKeepArms = 1;
    Harness h(governedArray(4, g));
    lightPhase(h, 0.0, 3000.0, 100.0);
    burstPhase(h, 3500.0, 400, 1.0);
    h.simul.run();

    const power::Governor *gov = h.arr.governor();
    ASSERT_NE(gov, nullptr);
    // Lull: below the top level it parked down to one serviceable
    // arm. Burst: SLO protection unparked everything again.
    EXPECT_GE(gov->stats().parks, 3u);
    EXPECT_GE(gov->stats().unparks, 3u);
    EXPECT_GE(h.arr.diskAt(0).stats().armParks, 3u);
    EXPECT_EQ(h.arr.stats().logicalCompletions,
              h.arr.stats().logicalArrivals);
}

TEST(Governor, ParkedTicksBilledAndConservationHolds)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);

    power::GovernorParams g = testGovernor();
    g.parkKeepArms = 1;
    Harness h(governedArray(4, g));
    lightPhase(h, 0.0, 3000.0, 100.0);
    burstPhase(h, 3500.0, 200, 1.0);
    h.simul.run();

    // finishPower closes the per-RPM segments and runs the
    // mode/energy conservation check on each drive: segments must
    // tile the totals exactly, parked time bounded by arms x wall.
    const power::PowerBreakdown power = h.arr.finishPower();
    EXPECT_GT(power.totalEnergyJ, 0.0);
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

TEST(Governor, GovernedLullUsesLessEnergyThanStaticNominal)
{
    // Identical sparse workload, governor on vs off: dropping to
    // 4200 RPM through the lull must save spindle energy.
    double energy[2];
    for (int v = 0; v < 2; ++v) {
        power::GovernorParams g = testGovernor();
        g.enabled = v == 1;
        Harness h(governedArray(2, g));
        lightPhase(h, 0.0, 8000.0, 200.0);
        h.simul.run();
        energy[v] = h.arr.finishPower().totalEnergyJ;
    }
    EXPECT_LT(energy[1], energy[0] * 0.85);
}

// ---------------------------------------------------------------
// PDES: governed configurations run under the engine (control ticks
// become horizon barriers) and must replicate the serial bytes.
// ---------------------------------------------------------------

TEST(GovernorPdes, GovernedRunUnderDynamicPdesMatchesSerial)
{
    workload::SyntheticParams wp;
    wp.requests = 1200;
    wp.meanInterArrivalMs = 10.0; // light: the governor gets to act
    const auto trace = workload::generateSynthetic(wp);

    auto csvAt = [&](int pdes_workers) {
        core::SystemConfig config = core::makeRaid0System(
            "governed-dyn",
            disk::makeIntraDiskParallel(disk::barracudaEs750(), 2), 4);
        config.array.governor = testGovernor();
        config.pdesWorkers = pdes_workers;
        const std::vector<core::RunResult> results = {
            core::runTrace(trace, config)};
        std::ostringstream os;
        core::writeSummaryCsv(os, results);
        core::writeCdfCsv(os, results);
        return os.str();
    };

    const std::string serial = csvAt(0);
    EXPECT_EQ(serial, csvAt(1));
    EXPECT_EQ(serial, csvAt(4));
    EXPECT_EQ(serial, csvAt(8));
}

// ---------------------------------------------------------------
// Determinism golden: a governed sweep pinned byte-for-byte, run at
// worker counts 1 and 8 (the sweep fans differently, the bytes must
// not). Refresh after intentional model changes with
// IDP_UPDATE_GOLDEN=1, then review the diff.
// ---------------------------------------------------------------

std::string
goldenGovernorCsv(unsigned threads)
{
    workload::SyntheticParams wp;
    wp.requests = 1500;
    wp.meanInterArrivalMs = 12.0; // light: the governor gets to act
    const auto trace = workload::generateSynthetic(wp);

    std::vector<core::SystemConfig> systems;
    for (std::uint32_t actuators : {1u, 2u, 4u}) {
        core::SystemConfig config = core::makeRaid0System(
            "GOV-SA(" + std::to_string(actuators) + ")",
            disk::makeIntraDiskParallel(disk::barracudaEs750(),
                                        actuators),
            1);
        power::GovernorParams g;
        g.enabled = true;
        g.minDwellMs = 1000.0;
        g.parkKeepArms = 1;
        config.array.governor = g;
        config.pdesWorkers = 0;
        systems.push_back(std::move(config));
    }

    const std::vector<core::RunResult> results =
        exec::runSystems(trace, systems, threads);
    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    return os.str();
}

TEST(GovernorDeterminismGolden, SweepMatchesGoldenFile)
{
    test::expectGolden("determinism_governor.csv",
                       goldenGovernorCsv(1));
}

TEST(GovernorDeterminismGolden, SweepIsThreadCountInvariant)
{
    EXPECT_EQ(goldenGovernorCsv(1), goldenGovernorCsv(8));
}

} // namespace
