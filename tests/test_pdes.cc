/**
 * @file
 * Conservative-PDES battery: horizon widths, horizon safety,
 * merge-order model, and randomized stress runs byte-comparing full
 * output against the serial event loop at several worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/bus.hh"
#include "config/env.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "disk/drive_config.hh"
#include "exec/pdes.hh"
#include "geom/geometry.hh"
#include "power/governor.hh"
#include "sim/event_queue.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

// ---------------------------------------------------------------
// Array shapes
// ---------------------------------------------------------------

core::SystemConfig
raid0NoBus(std::uint32_t disks)
{
    return core::makeRaid0System("pdes-raid0", disk::barracudaEs750(),
                                 disks);
}

core::SystemConfig
raid5WithBus(std::uint32_t disks)
{
    core::SystemConfig config;
    config.name = "pdes-raid5";
    config.array.layout = array::Layout::Raid5;
    config.array.disks = disks;
    config.array.drive = disk::barracudaEs750();
    config.array.useBus = true;
    return config;
}

// ---------------------------------------------------------------
// Horizon safety: a calendar can never be advanced past a pending
// (undelivered) event — the structural guard behind "the horizon
// never passes an unreceived cross-drive event".
// ---------------------------------------------------------------

TEST(PdesHorizonDeathTest, AdvancePastPendingEventPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Simulator simul;
    simul.schedule(100, [] {});
    EXPECT_DEATH(simul.advanceTo(150),
                 "pending event behind the target");
}

TEST(PdesHorizon, RunBeforeIsExclusiveAndNeverFastForwards)
{
    sim::Simulator simul;
    int fired = 0;
    simul.schedule(100, [&] { ++fired; });
    simul.schedule(200, [&] { ++fired; });

    simul.runBefore(100); // exclusive: the event at 100 must not fire
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(simul.now(), 0u);
    EXPECT_EQ(simul.nextEventTime(), 100u);

    simul.runBefore(101);
    EXPECT_EQ(fired, 1);
    // The clock sits on the last fired event, not the horizon — so a
    // later cross-drive delivery at any tick in [100, 200) can still
    // be accepted.
    EXPECT_EQ(simul.now(), 100u);

    simul.advanceTo(150); // legal: next pending event is at 200
    EXPECT_EQ(simul.now(), 150u);

    simul.runBefore(sim::kTickNever);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(simul.now(), 200u);
    EXPECT_EQ(simul.nextEventTime(), sim::kTickNever);
}

TEST(PdesHorizon, CancelledEventsDoNotBlockTheHorizon)
{
    sim::Simulator simul;
    int fired = 0;
    const sim::EventId id = simul.schedule(100, [&] { ++fired; });
    simul.schedule(300, [&] { ++fired; });
    simul.cancel(id);
    // The cancelled top must be discarded lazily, not fired, and must
    // not trip the advance guard either.
    EXPECT_EQ(simul.nextEventTime(), 300u);
    simul.advanceTo(200);
    EXPECT_EQ(simul.now(), 200u);
    simul.runBefore(301);
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------
// Merge order at the horizon: (tick, drive id, sequence).
// ---------------------------------------------------------------

TEST(PdesMergeOrder, KeyIsLexicographicTickDriveSeq)
{
    using K = exec::PdesCompletionKey;
    std::vector<K> keys = {
        {20, 0, 0}, {10, 2, 0}, {10, 0, 1}, {10, 1, 0},
        {10, 0, 0}, {20, 1, 3}, {10, 2, 1},
    };
    std::sort(keys.begin(), keys.end(), exec::pdesMergeBefore);

    const std::vector<K> want = {
        {10, 0, 0}, {10, 0, 1}, {10, 1, 0}, {10, 2, 0},
        {10, 2, 1}, {20, 0, 0}, {20, 1, 3},
    };
    ASSERT_EQ(keys.size(), want.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i].tick, want[i].tick) << "slot " << i;
        EXPECT_EQ(keys[i].drive, want[i].drive) << "slot " << i;
        EXPECT_EQ(keys[i].seq, want[i].seq) << "slot " << i;
    }
    // Strict: equal keys compare false both ways.
    EXPECT_FALSE(exec::pdesMergeBefore({5, 1, 2}, {5, 1, 2}));
}

// ---------------------------------------------------------------
// Stress: byte-identical output, serial vs PDES at several worker
// counts, for both the infinite-lookahead (RAID-0) and the
// finite-window (RAID-5 + bus) regimes.
// ---------------------------------------------------------------

std::string
runToCsv(const workload::Trace &trace, core::SystemConfig config,
         int pdes_workers)
{
    config.pdesWorkers = pdes_workers;
    const std::vector<core::RunResult> results = {
        core::runTrace(trace, config)};
    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    core::writeRotPdfCsv(os, results);
    return os.str();
}

TEST(PdesStress, Raid0TenThousandRequestsByteIdentical)
{
    workload::SyntheticParams wp;
    wp.requests = 10000;
    wp.meanInterArrivalMs = 1.0;
    wp.seed = 0xD15CULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid0NoBus(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

TEST(PdesStress, Raid5BusFiniteWindowByteIdentical)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.seed = 0x5A1DULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid5WithBus(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
}

TEST(PdesStress, EnvironmentOptInMatchesSerial)
{
    workload::SyntheticParams wp;
    wp.requests = 3000;
    const auto trace = workload::generateSynthetic(wp);

    // The resolved environment picks the run mode; either way the
    // bytes must match.
    auto runUnder = [&](const std::vector<std::string> &entries,
                        int want_workers) {
        core::SystemConfig system = raid0NoBus(4);
        config::resolveEnv(entries).apply(system);
        EXPECT_EQ(system.pdesWorkers, want_workers);
        return runToCsv(trace, system, system.pdesWorkers);
    };
    EXPECT_EQ(runUnder({}, 0),
              runUnder({"IDP_PDES=1", "IDP_PDES_WORKERS=3"}, 3));
}

// ---------------------------------------------------------------
// Exactness with 8 workers (satellite: thread-local scopes must
// install per worker; counters and checker accounting stay exact).
// ---------------------------------------------------------------

TEST(PdesExactness, CheckerAccountingIsExactAcrossWorkerCounts)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid0NoBus(4);

    // The checker's observation count is a hook-invocation total fed
    // from every worker thread: any lost update at 8 workers would
    // break equality with the 1-worker run of the same schedule.
    std::uint64_t observed[2] = {0, 0};
    const int workers[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        core::SystemConfig c = config;
        c.pdesWorkers = workers[i];
        core::runTrace(trace, c);
        checker.finalize();
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
        observed[i] = checker.observations();
    }
    EXPECT_GT(observed[0], trace.size());
    EXPECT_EQ(observed[0], observed[1]);
}

// ---------------------------------------------------------------
// Dynamic horizons: every configuration runs — including the ones no
// constant lookahead admits (RAID-1 replica pricing, busless RAID-5
// RMW) — and reproduces the serial bytes at several worker counts.
// ---------------------------------------------------------------

core::SystemConfig
raid1Positioning(std::uint32_t disks)
{
    core::SystemConfig config;
    config.name = "pdes-raid1";
    config.array.layout = array::Layout::Raid1;
    config.array.disks = disks;
    config.array.drive = disk::barracudaEs750();
    return config;
}

TEST(PdesDynamic, Raid1PositioningByteIdenticalAcrossWorkers)
{
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    wp.seed = 0x1A1DULL;
    const auto trace = workload::generateSynthetic(wp);
    const core::SystemConfig config = raid1Positioning(4);

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

TEST(PdesDynamic, BuslessRaid5ByteIdenticalAcrossWorkers)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 2.0;
    wp.seed = 0x0B05ULL;
    const auto trace = workload::generateSynthetic(wp);
    core::SystemConfig config = raid5WithBus(4);
    config.array.useBus = false;

    const std::string serial = runToCsv(trace, config, 0);
    EXPECT_EQ(serial, runToCsv(trace, config, 1));
    EXPECT_EQ(serial, runToCsv(trace, config, 4));
    EXPECT_EQ(serial, runToCsv(trace, config, 8));
}

/** Run @p trace under a 4-worker PdesRun of @p params and return
 *  the finished engine (rounds, serial steps, width histogram). */
std::unique_ptr<exec::PdesRun>
runEngine(const array::ArrayParams &params, const workload::Trace &trace)
{
    auto prun = std::make_unique<exec::PdesRun>(
        params, 4, telemetry::TraceOptions{});
    array::StorageArray arr(prun->coordSim(), params, nullptr,
                            prun.get());
    prun->setArray(&arr);
    for (const auto &req : trace)
        prun->coordSim().schedule(req.arrival,
                                  [&arr, req] { arr.submit(req); });
    prun->run();
    EXPECT_EQ(arr.stats().logicalCompletions, trace.size());
    return prun;
}

TEST(PdesDynamic, OpenLoopFanOutRunsOneUnboundedRound)
{
    // No bus and no RMW feedback: completions never influence any
    // future submission, so the whole run is one unbounded window.
    workload::SyntheticParams wp;
    wp.requests = 1000;
    wp.meanInterArrivalMs = 1.0;
    const auto prun =
        runEngine(raid0NoBus(4).array, workload::generateSynthetic(wp));
    EXPECT_EQ(prun->rounds(), 1u);
    EXPECT_EQ(prun->serialSteps(), 0u);
    EXPECT_EQ(prun->horizonWidthHist()[exec::PdesRun::kHorizonBuckets -
                                       1],
              1u);
}

TEST(PdesDynamic, BusBoundsEveryWindowToOneSectorTransfer)
{
    // With a bus every feedback path crosses it, so each round's
    // window is exactly one one-sector transfer wide.
    const core::SystemConfig config = raid5WithBus(4);
    sim::Tick width = bus::Bus::minTransferTicks(config.array.bus,
                                                 geom::kSectorBytes);
    ASSERT_GT(width, 0u);
    std::size_t bucket = 0;
    while (width >>= 1)
        ++bucket;

    workload::SyntheticParams wp;
    wp.requests = 1000;
    wp.meanInterArrivalMs = 2.0;
    const auto prun =
        runEngine(config.array, workload::generateSynthetic(wp));
    EXPECT_EQ(prun->serialSteps(), 0u);
    EXPECT_GT(prun->rounds(), 1u);
    EXPECT_EQ(prun->horizonWidthHist()[bucket], prun->rounds());
}

TEST(PdesDynamic, SerialStepAndHorizonTelemetry)
{
    // RAID-1 replica pricing reads live drive state, so every
    // dispatch tick must execute as a serial step — the counters and
    // the width histogram have to reflect that split exactly.
    array::ArrayParams params;
    params.layout = array::Layout::Raid1;
    params.disks = 4;
    params.drive = disk::barracudaEs750();

    exec::PdesRun prun(params, 4, telemetry::TraceOptions{});
    array::StorageArray arr(prun.coordSim(), params, nullptr, &prun);
    prun.setArray(&arr);

    workload::SyntheticParams wp;
    wp.requests = 500;
    wp.meanInterArrivalMs = 1.0;
    const auto trace = workload::generateSynthetic(wp);
    for (const auto &req : trace)
        prun.coordSim().schedule(req.arrival,
                                 [&arr, req] { arr.submit(req); });
    prun.run();

    EXPECT_GT(prun.serialSteps(), 0u);
    EXPECT_GE(prun.rounds(), prun.serialSteps());
    std::uint64_t windowed = 0;
    for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b)
        windowed += prun.horizonWidthHist()[b];
    EXPECT_EQ(windowed + prun.serialSteps(), prun.rounds());
    EXPECT_EQ(arr.stats().logicalCompletions, trace.size());
}

// ---------------------------------------------------------------
// Bound admissibility, pinned through the invariant checker: every
// completion floor (dynamic horizons) is compared against the actual
// completion tick when it fires. Randomized across seeds, including
// RAID-1 replica pricing and runs whose spindle speed changes
// mid-flight under the energy governor.
// ---------------------------------------------------------------

TEST(PdesAdmissibility, PositioningBoundsHoldUnderRandomRaid1Load)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    for (const std::uint64_t seed : {0xA11CEULL, 0xB0BULL, 0xCAB1EULL}) {
        workload::SyntheticParams wp;
        wp.requests = 2500;
        wp.meanInterArrivalMs = 1.0;
        wp.seed = seed;
        const auto trace = workload::generateSynthetic(wp);

        for (const int workers : {0, 4}) {
            verify::InvariantChecker checker(verify::FailMode::Record);
            verify::VerifyScope scope(&checker);
            core::SystemConfig config = raid1Positioning(4);
            config.pdesWorkers = workers;
            core::runTrace(trace, config);
            checker.finalize();
            EXPECT_TRUE(checker.violations().empty())
                << "seed " << seed << " workers " << workers << ": "
                << checker.violations().front();
        }
    }
}

TEST(PdesAdmissibility, CompletionFloorsHoldUnderTimeVaryingRpm)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    // A governed run shifts spindle speed mid-flight; the service
    // floors priced before and across the shift must stay at or below
    // every actual completion, or the checker trips.
    power::GovernorParams g;
    g.enabled = true;
    g.windowMs = 50.0;
    g.sloP99Ms = 80.0;
    g.busyHigh = 0.5;
    g.busyLow = 0.2;
    g.minDwellMs = 200.0;
    g.rpmLevels = {7200, 5200, 4200};

    for (const std::uint64_t seed : {0x5EEDULL, 0xF00DULL}) {
        workload::SyntheticParams wp;
        wp.requests = 1500;
        wp.meanInterArrivalMs = 8.0; // lulls: the governor downshifts
        wp.seed = seed;
        const auto trace = workload::generateSynthetic(wp);

        for (const int workers : {0, 4}) {
            verify::InvariantChecker checker(verify::FailMode::Record);
            verify::VerifyScope scope(&checker);
            core::SystemConfig config = core::makeRaid0System(
                "governed-bounds",
                disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
                4);
            config.array.governor = g;
            config.pdesWorkers = workers;
            core::runTrace(trace, config);
            checker.finalize();
            EXPECT_TRUE(checker.violations().empty())
                << "seed " << seed << " workers " << workers << ": "
                << checker.violations().front();
            EXPECT_GT(checker.observations(), trace.size());
        }
    }
}

TEST(PdesExactness, ModuleCountersExactWithEightWorkers)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "telemetry compiled out";
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 1.0;
    const auto trace = workload::generateSynthetic(wp);

    auto tracedAt = [&](int pdes_workers) {
        core::SystemConfig c = raid0NoBus(4);
        c.pdesWorkers = pdes_workers;
        c.tracing.enabled = true;
        return core::runTrace(trace, c);
    };
    auto metricsAt = [&](int pdes_workers) {
        return tracedAt(pdes_workers).metrics;
    };
    const auto serial = metricsAt(0);
    const auto pdes8 = metricsAt(8);

    // Module counters (disk.*, sched.*, array.*, ...) must agree
    // exactly between the serial path and 8 concurrent workers — a
    // racy-approximate counter would drift here. Kernel-internal
    // sim.* gauges intentionally differ (per-calendar aggregation).
    std::size_t compared = 0;
    for (const auto &m : serial) {
        if (m.name.rfind("sim.", 0) == 0)
            continue;
        bool found = false;
        for (const auto &p : pdes8) {
            if (p.name != m.name)
                continue;
            EXPECT_DOUBLE_EQ(p.value, m.value) << m.name;
            found = true;
            ++compared;
            break;
        }
        EXPECT_TRUE(found) << "metric missing under PDES: " << m.name;
    }
    EXPECT_GT(compared, 5u);

    // And the merged trace must carry every span exactly once.
    const auto serial_run = tracedAt(0);
    const auto pdes_run = tracedAt(8);
    ASSERT_NE(serial_run.trace, nullptr);
    ASSERT_NE(pdes_run.trace, nullptr);
    for (std::size_t k = 0; k < serial_run.trace->phases.size(); ++k) {
        EXPECT_EQ(pdes_run.trace->phases[k].count,
                  serial_run.trace->phases[k].count);
        EXPECT_EQ(pdes_run.trace->phases[k].ticks,
                  serial_run.trace->phases[k].ticks);
    }
}

} // namespace
