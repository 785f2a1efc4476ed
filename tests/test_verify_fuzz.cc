/**
 * @file
 * The configuration fuzzer: random drives under random array layouts
 * (the single-disk layout stands in for the bare drive) and random
 * workloads, driven through the full stack with the invariant checker
 * hot, plus serialization round-trip audits (trace files, CSV
 * exports) on the randomized results. Besides every violation the
 * checker records, each run must complete every request causally,
 * drain, and keep each drive's mode accounting exact; those checks
 * hold with the checker compiled out too. A seeded xoshiro stream
 * keeps every "random" case reproducible.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "core/run.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "verify/verify.hh"
#include "workload/trace_io.hh"

namespace {

using namespace idp;
using verify::FailMode;
using verify::InvariantChecker;
using verify::VerifyScope;

std::uint32_t
randomBetween(sim::Rng &rng, std::int64_t lo, std::int64_t hi)
{
    return static_cast<std::uint32_t>(rng.uniformInt(lo, hi));
}

/** A random but valid drive: geometry, seek curve, DASH dimensions
 *  and budgets, scheduler, cache, and the feature flags. */
disk::DriveSpec
randomDrive(sim::Rng &rng)
{
    disk::DriveSpec spec;
    spec.rpm = randomBetween(rng, 3600, 15000);
    spec.geometry.capacityBytes =
        static_cast<std::uint64_t>(rng.uniform(0.5, 8.0) * 1e9);
    spec.geometry.platters = randomBetween(rng, 1, 6);
    spec.geometry.zones = randomBetween(rng, 1, 24);
    spec.geometry.innerSpt = randomBetween(rng, 200, 700);
    spec.geometry.outerSpt =
        spec.geometry.innerSpt + randomBetween(rng, 0, 800);

    spec.seek.singleCylinderMs = rng.uniform(0.2, 1.5);
    spec.seek.averageMs =
        spec.seek.singleCylinderMs + rng.uniform(1.0, 10.0);
    spec.seek.fullStrokeMs = spec.seek.averageMs + rng.uniform(1.0, 12.0);

    spec.dash.armAssemblies = randomBetween(rng, 1, 4);
    spec.dash.headsPerArm = randomBetween(rng, 1, 2);
    spec.dash.surfaces = randomBetween(rng, 1, spec.geometry.platters * 2);
    spec.maxConcurrentSeeks =
        randomBetween(rng, 1, spec.dash.armAssemblies);
    spec.maxConcurrentTransfers =
        randomBetween(rng, 1, spec.dash.armAssemblies);

    const sched::Policy policies[] = {
        sched::Policy::Fcfs, sched::Policy::Sstf, sched::Policy::Clook,
        sched::Policy::Sptf, sched::Policy::SptfAged};
    spec.sched.policy = policies[rng.uniformInt(5ULL)];
    spec.schedWindow = randomBetween(rng, 1, 64);

    spec.cache.cacheBytes = randomBetween(rng, 1, 16) * 1024 * 1024;
    spec.cache.segments = randomBetween(rng, 1, 31);
    spec.cache.writeBack = rng.chance(0.3);

    spec.zeroLatencyAccess = rng.chance(0.3);
    spec.coalesce = rng.chance(0.3);
    spec.mediaRetryRate = rng.chance(0.3) ? rng.uniform(0.0, 0.3) : 0.0;
    if (rng.chance(0.2)) {
        spec.spinDownAfterMs = rng.uniform(10.0, 200.0);
        spec.spinUpMs = rng.uniform(100.0, 2000.0);
    }
    spec.seekScale = rng.chance(0.2) ? rng.uniform(0.0, 1.0) : 1.0;
    spec.rotScale = rng.chance(0.2) ? rng.uniform(0.0, 1.0) : 1.0;
    spec.normalize();
    return spec;
}

core::SystemConfig
randomSystem(sim::Rng &rng)
{
    const disk::DriveSpec drive = randomDrive(rng);
    core::SystemConfig config;
    switch (rng.uniformInt(4ULL)) {
      case 0:
        config = core::makeRaid0System("fuzz-single", drive, 1);
        break;
      case 1:
        config = core::makeRaid0System(
            "fuzz-raid0", drive,
            2 + static_cast<std::uint32_t>(rng.uniformInt(3ULL)));
        break;
      case 2:
        config = core::makeRaid0System("fuzz-raid1", drive, 4);
        config.array.layout = array::Layout::Raid1;
        break;
      default:
        config = core::makeRaid0System(
            "fuzz-raid5", drive,
            3 + static_cast<std::uint32_t>(rng.uniformInt(3ULL)));
        config.array.layout = array::Layout::Raid5;
        break;
    }
    config.array.stripeSectors = 8u << rng.uniformInt(5ULL);
    return config;
}

workload::Trace
randomTrace(sim::Rng &rng, std::uint64_t logical_sectors,
            std::uint64_t requests)
{
    workload::Trace trace;
    sim::Tick clock = 0;
    for (std::uint64_t i = 0; i < requests; ++i) {
        workload::IoRequest req;
        req.id = i;
        clock += rng.uniformInt(4ULL * sim::kTicksPerMs);
        req.arrival = clock;
        req.device = 0;
        req.sectors = 1 + static_cast<std::uint32_t>(
            rng.uniformInt(255ULL));
        req.lba = rng.uniformInt(logical_sectors - req.sectors);
        req.isRead = rng.chance(0.6);
        req.background = rng.chance(0.1);
        trace.push_back(req);
    }
    return trace;
}

/**
 * Replay @p trace on @p config with no checker and expect the laws
 * that need none: every request completes, none before its arrival,
 * the array drains (Run::drain asserts it), and each drive's mode
 * wall times tile its total with standby inside idle.
 */
void
expectCausalDrain(core::SystemConfig config,
                  const workload::Trace &trace)
{
    config.checkInvariants = false;
    std::uint64_t completions = 0;
    bool causal = true;
    core::Run run(config, [&](const workload::IoRequest &req,
                              sim::Tick done) {
        ++completions;
        causal = causal && done >= req.arrival;
    });
    for (const workload::IoRequest &req : trace)
        run.sim().schedule(req.arrival,
                           [&run, req] { run.array().submit(req); });
    run.drain();

    EXPECT_EQ(completions, trace.size());
    EXPECT_TRUE(causal);
    EXPECT_GE(run.endTick(), trace.back().arrival);
    for (std::uint32_t d = 0; d < run.array().diskCount(); ++d) {
        const stats::ModeTimes times =
            run.array().diskAt(d).modeTimesSnapshot();
        sim::Tick wall = 0;
        for (const sim::Tick w : times.wall)
            wall += w;
        EXPECT_EQ(wall, times.total) << "disk " << d;
        EXPECT_LE(times.standbyTicks,
                  times.wall[static_cast<std::size_t>(
                      stats::DiskMode::Idle)])
            << "disk " << d;
    }
}

class VerifyFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(VerifyFuzz, RandomArrayRunsViolateNothing)
{
    sim::Rng rng(0xFA22 + static_cast<std::uint64_t>(GetParam()));
    const core::SystemConfig config = randomSystem(rng);
    const disk::DriveSpec &drive = config.array.drive;
    SCOPED_TRACE(config.name + " " + drive.dash.str() +
                 " rpm=" + std::to_string(drive.rpm) + " policy=" +
                 sched::policyToString(drive.sched.policy));

    // Probe the logical capacity with a throwaway build (cheap), then
    // fuzz a workload inside it.
    const std::uint64_t logical = [&] {
        sim::Simulator probe;
        return array::StorageArray(probe, config.array)
            .logicalSectors();
    }();
    workload::Trace trace = randomTrace(rng, logical, 400);

    InvariantChecker vc(FailMode::Record);
    core::RunResult result;
    {
        VerifyScope scope(&vc);
        result = core::runTrace(trace, config);
    }
    vc.finalize();
    EXPECT_EQ(result.completions, trace.size());
    if (verify::kCompiledIn) {
        EXPECT_TRUE(vc.violations().empty())
            << vc.violations().front();
        EXPECT_GT(vc.observations(), trace.size());
    }

    expectCausalDrain(config, trace);

    // Serialization audits on the fuzzed run:
    // (a) the trace must round-trip exactly through the v2 format;
    std::stringstream buf;
    workload::writeTrace(buf, trace);
    const workload::Trace loaded = workload::readTrace(buf);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].id, trace[i].id);
        EXPECT_EQ(loaded[i].arrival, trace[i].arrival);
        EXPECT_EQ(loaded[i].lba, trace[i].lba);
        EXPECT_EQ(loaded[i].sectors, trace[i].sectors);
        EXPECT_EQ(loaded[i].isRead, trace[i].isRead);
        EXPECT_EQ(loaded[i].background, trace[i].background);
    }

    // (b) CSV exports must be well-formed: header plus one data row
    // per system / bucket, stable across a second serialization.
    std::ostringstream csv1, csv2;
    core::writeSummaryCsv(csv1, {result});
    core::writeSummaryCsv(csv2, {result});
    EXPECT_EQ(csv1.str(), csv2.str());
    EXPECT_NE(csv1.str().find(config.name), std::string::npos);

    std::ostringstream cdf;
    core::writeCdfCsv(cdf, {result});
    std::size_t rows = 0;
    for (char c : cdf.str())
        rows += c == '\n';
    EXPECT_EQ(rows, 1 + result.responseHist.buckets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyFuzz, ::testing::Range(0, 36));

} // namespace
