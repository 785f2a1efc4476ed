/**
 * @file
 * Cross-PR determinism regression: a small fixed scenario whose
 * summary statistics are pinned to a checked-in golden file.
 *
 * The parallel-runner tests prove cross-*thread* determinism; this
 * test catches cross-*PR* drift — any change to the simulator core,
 * workload generator, RNG, stats formatting or power model that
 * alters the numbers of a fixed scenario fails here, loudly, with a
 * diffable CSV.
 *
 * Scenario: one HC-SD-SA(2) drive (the paper's 2-actuator design),
 * 5,000 synthetic requests with exponential arrivals (mean 4 ms, 60%
 * reads, 20% sequential — the Section 7.3 mix), default seed.
 *
 * Refreshing after an *intentional* model change:
 *
 *     IDP_UPDATE_GOLDEN=1 ./build/tests/idp_tests \
 *         --gtest_filter='DeterminismGolden.*'
 *
 * then review the golden diff like any other code change.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "core/run.hh"
#include "rig.hh"
#include "stats/table.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

std::string
runScenario()
{
    workload::SyntheticParams wp;
    wp.requests = 5000;
    wp.meanInterArrivalMs = 4.0; // exponential arrivals
    const auto trace = workload::generateSynthetic(wp);

    const core::SystemConfig config = core::makeRaid0System(
        "HC-SD-SA(2)",
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 2), 1);
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};

    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

TEST(DeterminismGolden, Sa2ExponentialScenarioMatchesGoldenFile)
{
    test::expectGolden("determinism_sa2.csv", runScenario());
}

TEST(DeterminismGolden, ScenarioIsRunToRunStable)
{
    // The golden comparison is only meaningful if the scenario is a
    // pure function — two in-process runs must agree byte-for-byte.
    EXPECT_EQ(runScenario(), runScenario());
}

// ---------------------------------------------------------------
// PDES golden matrix: each scenario below is pinned to one golden
// file that the serial path (pdesWorkers = 0) and the PDES path at 1
// and 8 workers must all reproduce byte-for-byte. Catches both
// cross-PR drift and any serial/parallel or worker-count divergence.
// ---------------------------------------------------------------

struct PdesScenario
{
    const char *golden; ///< file name under tests/golden/
    core::SystemConfig config;
    std::uint64_t requests;
};

PdesScenario
pdesScenario(const std::string &name)
{
    if (name == "sa1") {
        return {"determinism_pdes_sa1.csv",
                core::makeRaid0System(
                    "HC-SD-SA(1)",
                    disk::makeIntraDiskParallel(disk::barracudaEs750(),
                                                1),
                    1),
                5000};
    }
    if (name == "sa4") {
        return {"determinism_pdes_sa4.csv",
                core::makeRaid0System(
                    "HC-SD-SA(4)",
                    disk::makeIntraDiskParallel(disk::barracudaEs750(),
                                                4),
                    1),
                5000};
    }
    if (name == "raid5") {
        // RAID-5 with the host bus modeled: the finite-lookahead
        // regime, where windows are bounded by the one-sector bus
        // transfer. Kept shorter — the run synchronizes every ~12 us
        // of simulated time.
        core::SystemConfig raid5;
        raid5.name = "RAID5-4";
        raid5.array.layout = array::Layout::Raid5;
        raid5.array.disks = 4;
        raid5.array.drive = disk::barracudaEs750();
        raid5.array.useBus = true;
        return {"determinism_pdes_raid5.csv", raid5, 1500};
    }
    if (name == "raid1") {
        // RAID-1 with positioning-priced replica dispatch: the
        // coordinator reads live arm/rotation state on every read, so
        // the dynamic engine must serialize each dispatch tick while
        // still parallelizing the drive windows between them.
        core::SystemConfig raid1;
        raid1.name = "RAID1-4";
        raid1.array.layout = array::Layout::Raid1;
        raid1.array.disks = 4;
        raid1.array.drive = disk::barracudaEs750();
        return {"determinism_pdes_raid1.csv", raid1, 3000};
    }
    // Busless RAID-5: read-modify-write resubmits at the completion
    // tick with zero bus latency — the static engine rejects it, the
    // dynamic engine bounds horizons by drive completion floors.
    core::SystemConfig nobus;
    nobus.name = "RAID5-4-nobus";
    nobus.array.layout = array::Layout::Raid5;
    nobus.array.disks = 4;
    nobus.array.drive = disk::barracudaEs750();
    nobus.array.useBus = false;
    return {"determinism_pdes_raid5_nobus.csv", nobus, 1500};
}

std::string
runPdesScenario(const PdesScenario &scenario, int pdes_workers)
{
    workload::SyntheticParams wp;
    wp.requests = scenario.requests;
    wp.meanInterArrivalMs = 2.0;
    const auto trace = workload::generateSynthetic(wp);

    core::SystemConfig config = scenario.config;
    config.pdesWorkers = pdes_workers;
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};

    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

class PdesGolden : public testing::TestWithParam<const char *>
{
};

TEST_P(PdesGolden, MatrixMatchesGoldenFileAtEveryWorkerCount)
{
    const PdesScenario scenario = pdesScenario(GetParam());
    const std::string serial = runPdesScenario(scenario, 0);
    test::expectGolden(scenario.golden, serial);
    EXPECT_EQ(serial, runPdesScenario(scenario, 1))
        << "PDES(1 worker) diverged from " << scenario.golden;
    EXPECT_EQ(serial, runPdesScenario(scenario, 4))
        << "PDES(4 workers) diverged from " << scenario.golden;
    EXPECT_EQ(serial, runPdesScenario(scenario, 8))
        << "PDES(8 workers) diverged from " << scenario.golden;
}

INSTANTIATE_TEST_SUITE_P(Matrix, PdesGolden,
                         testing::Values("sa1", "sa4", "raid5",
                                         "raid1", "raid5nobus"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// Failure-lifecycle goldens: degraded RAID-5 (a member fails mid-run
// with work in flight) and rebuilding RAID-1 (spare reconstruction
// streams under foreground traffic). runTrace has no failure hook, so
// these set a core::Run up directly and pin a summary CSV of the
// response/accounting numbers. With pdes_workers > 0 the same
// scenario runs under the dynamic-horizon engine: the mid-run failure
// goes through scheduleFailDisk (a horizon barrier) and the bytes
// must not move.
// ---------------------------------------------------------------

std::string
runFailureScenario(const std::string &name, int pdes_workers = 0)
{
    const bool rebuilding = name == "rebuild_raid1";
    core::SystemConfig system;
    system.array.drive = disk::enterpriseDrive(1.0, 10000, 2);
    if (rebuilding) {
        system.array.layout = array::Layout::Raid1;
        system.array.disks = 2;
    } else {
        system.array.layout = array::Layout::Raid5;
        system.array.disks = 4;
        system.array.stripeSectors = 16;
    }
    system.pdesWorkers = pdes_workers;

    core::Run run(system);
    array::StorageArray &arr = run.array();
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.addressSpaceSectors = arr.logicalSectors() - 64;
    wp.seed = 0xFA11;
    const auto trace = workload::generateSynthetic(wp);
    for (const auto &req : trace)
        run.sim().schedule(req.arrival, [&arr, req] { arr.submit(req); });

    if (rebuilding) {
        // Before drain(): every calendar still sits at tick 0, so the
        // direct calls are serially synchronized in both modes.
        arr.failDisk(0);
        array::RebuildParams rp;
        rp.chunkSectors = 65536;
        arr.startRebuild(0, rp);
    } else {
        arr.scheduleFailDisk(1, 50 * sim::kTicksPerMs);
    }
    run.drain();
    arr.sealStats();

    const array::ArrayStats &st = arr.stats();
    std::ostringstream os;
    os << "scenario,completions,dropped,tainted,samples,"
          "mean_ms,p90_ms,p99_ms\n";
    os << name << ',' << st.logicalCompletions << ','
       << st.droppedSubCompletions << ',' << st.taintedJoins << ','
       << st.responseMs.count() << ',' << stats::fmt(st.responseMs.mean(), 4)
       << ',' << stats::fmt(st.responseMs.p90(), 4) << ','
       << stats::fmt(st.responseMs.p99(), 4) << '\n';
    if (rebuilding) {
        const auto &prog = arr.rebuild()->progress();
        os << "rebuild,chunks,reads,spare_writes,yields,window_ms\n";
        os << "rebuild," << prog.chunksDone << ',' << prog.readSubs
           << ',' << prog.spareWrites << ',' << prog.yields << ','
           << stats::fmt(
                  sim::ticksToMs(prog.finishedAt - prog.startedAt), 4)
           << '\n';
    }
    return os.str();
}

class FailureGolden : public testing::TestWithParam<const char *>
{
};

TEST_P(FailureGolden, ScenarioMatchesGoldenFile)
{
    const std::string name = GetParam();
    test::expectGolden("determinism_" + name + ".csv",
                       runFailureScenario(name));
}

TEST_P(FailureGolden, RecordCheckerSeesNoViolationAtZeroAndFourWorkers)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "checker compiled out";
    const std::string name = GetParam();
    const std::string golden =
        test::readGolden("determinism_" + name + ".csv");
    for (int workers : {0, 4}) {
        // The outer checker takes precedence over the run's own.
        verify::InvariantChecker checker(verify::FailMode::Record);
        std::string measured;
        {
            verify::VerifyScope scope(&checker);
            measured = runFailureScenario(name, workers);
        }
        checker.finalize();
        EXPECT_TRUE(checker.violations().empty())
            << workers << " workers: " << checker.violations().front();
        EXPECT_GT(checker.observations(), 0u) << workers << " workers";
        EXPECT_EQ(golden, measured) << workers << " workers";
    }
}

TEST_P(FailureGolden, ScenarioIsRunToRunStable)
{
    EXPECT_EQ(runFailureScenario(GetParam()),
              runFailureScenario(GetParam()));
}

TEST_P(FailureGolden, PdesMatchesSerialAtEveryWorkerCount)
{
    // The mid-run failDisk becomes a horizon barrier and the rebuild
    // stream serializes its pump ticks; the summary bytes must match
    // the serial run at any worker count.
    const std::string serial = runFailureScenario(GetParam(), 0);
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 1));
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 4));
    EXPECT_EQ(serial, runFailureScenario(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(Lifecycle, FailureGolden,
                         testing::Values("degraded_raid5",
                                         "rebuild_raid1"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
