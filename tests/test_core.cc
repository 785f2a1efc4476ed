/**
 * @file
 * Core experiment-layer tests: system builders, the trace runner, the
 * run lifecycle, and the qualitative paper behaviours at reduced
 * scale.
 */

#include <gtest/gtest.h>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/run.hh"
#include "telemetry/telemetry.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using namespace idp::core;
using workload::Commercial;

TEST(Builders, MdMatchesTable2)
{
    const SystemConfig md = makeMdSystem(Commercial::Financial);
    EXPECT_EQ(md.name, "MD");
    EXPECT_EQ(md.array.layout, array::Layout::PassThrough);
    EXPECT_EQ(md.array.disks, 24u);
    EXPECT_EQ(md.array.drive.rpm, 10000u);
    EXPECT_EQ(md.array.drive.geometry.platters, 4u);
}

TEST(Builders, HcsdIsOneBarracuda)
{
    const SystemConfig hcsd = makeHcsdSystem(Commercial::Websearch);
    EXPECT_EQ(hcsd.array.layout, array::Layout::Concat);
    EXPECT_EQ(hcsd.array.disks, 1u);
    EXPECT_EQ(hcsd.array.drive.rpm, 7200u);
    EXPECT_EQ(hcsd.array.deviceSectors.size(), 6u);
    // 6 x 19.07 GB fits in 750 GB.
    std::uint64_t total = 0;
    for (auto s : hcsd.array.deviceSectors)
        total += s;
    EXPECT_LT(total * geom::kSectorBytes, 750ULL * 1000000000);
}

TEST(Builders, SaSystemsNameAndConfigure)
{
    const SystemConfig sa2 = makeSaSystem(Commercial::TpcC, 2);
    EXPECT_EQ(sa2.name, "HC-SD-SA(2)");
    EXPECT_EQ(sa2.array.drive.dash.armAssemblies, 2u);
    EXPECT_EQ(sa2.array.drive.maxConcurrentSeeks, 1u);
    EXPECT_EQ(sa2.array.drive.maxConcurrentTransfers, 1u);

    const SystemConfig sa4_5200 = makeSaSystem(Commercial::TpcC, 4,
                                               5200);
    EXPECT_EQ(sa4_5200.name, "HC-SD-SA(4)/5200");
    EXPECT_EQ(sa4_5200.array.drive.rpm, 5200u);
}

TEST(Builders, DashStringForms)
{
    disk::DashConfig dash;
    EXPECT_EQ(dash.str(), "D1A1S1H1");
    EXPECT_TRUE(dash.conventional());
    dash.armAssemblies = 4;
    EXPECT_EQ(dash.str(), "D1A4S1H1");
    EXPECT_FALSE(dash.conventional());
    EXPECT_EQ(dash.dataPaths(), 4u);
}

TEST(Runner, DrainsAndCounts)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 6.0;
    wp.addressSpaceSectors = 1000000;
    const auto trace = workload::generateSynthetic(wp);

    const SystemConfig sys = makeRaid0System(
        "one-disk", disk::enterpriseDrive(2.0, 10000, 2), 1);
    const RunResult r = runTrace(trace, sys);
    EXPECT_EQ(r.requests, 2000u);
    EXPECT_EQ(r.completions, 2000u);
    EXPECT_GT(r.meanResponseMs, 0.0);
    EXPECT_GE(r.p99ResponseMs, r.p90ResponseMs);
    EXPECT_GT(r.power.totalAvgW(), 0.0);
    EXPECT_GT(r.throughputIops, 0.0);
    EXPECT_EQ(r.responseHist.total(), 2000u);
}

TEST(Runner, MoreDisksFasterUnderLoad)
{
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 2.0;
    // Within the 2 GB member disk (~3.91M sectors): out-of-range
    // sub-requests are a verify violation now, not a silent clamp.
    wp.addressSpaceSectors = 3900000;
    const auto trace = workload::generateSynthetic(wp);

    const disk::DriveSpec drive = disk::enterpriseDrive(2.0, 10000, 2);
    const RunResult one =
        runTrace(trace, makeRaid0System("d1", drive, 1));
    const RunResult four =
        runTrace(trace, makeRaid0System("d4", drive, 4));
    EXPECT_LT(four.p90ResponseMs, one.p90ResponseMs);
    // ... at higher power.
    EXPECT_GT(four.power.totalAvgW(), one.power.totalAvgW() * 2.0);
}

TEST(Runner, IntraDiskParallelismHelpsUnderLoad)
{
    workload::SyntheticParams wp;
    wp.requests = 4000;
    wp.meanInterArrivalMs = 3.0;
    wp.addressSpaceSectors = 3900000;
    const auto trace = workload::generateSynthetic(wp);

    const disk::DriveSpec conv = disk::enterpriseDrive(2.0, 10000, 2);
    const disk::DriveSpec sa4 = disk::makeIntraDiskParallel(conv, 4);
    const RunResult r1 =
        runTrace(trace, makeRaid0System("conv", conv, 1));
    const RunResult r4 =
        runTrace(trace, makeRaid0System("sa4", sa4, 1));
    EXPECT_LT(r4.meanResponseMs, r1.meanResponseMs);
    // (Rotational-latency means are not compared here: the saturated
    // conventional drive's deep queue lets SPTF cherry-pick short
    // waits, so the per-access rot statistic is queue-depth-
    // confounded. The idle-drive rot reduction is asserted in
    // DiskDrive.MultiActuatorReducesRotLatency.)
    // Single motion + single channel keep power comparable: within a
    // couple of watts.
    EXPECT_LT(r4.power.totalAvgW(), r1.power.totalAvgW() + 3.0);
}

TEST(Runner, DeterministicResults)
{
    workload::SyntheticParams wp;
    wp.requests = 1500;
    wp.addressSpaceSectors = 1000000;
    const auto trace = workload::generateSynthetic(wp);
    const SystemConfig sys = makeRaid0System(
        "det", disk::makeIntraDiskParallel(
                   disk::enterpriseDrive(2.0, 10000, 2), 2), 1);
    const RunResult a = runTrace(trace, sys);
    const RunResult b = runTrace(trace, sys);
    EXPECT_DOUBLE_EQ(a.meanResponseMs, b.meanResponseMs);
    EXPECT_DOUBLE_EQ(a.power.totalEnergyJ, b.power.totalEnergyJ);
}

TEST(Runner, SeekRotScalingKnobs)
{
    workload::SyntheticParams wp;
    wp.requests = 2000;
    wp.meanInterArrivalMs = 6.0;
    wp.addressSpaceSectors = 2000000;
    const auto trace = workload::generateSynthetic(wp);

    SystemConfig base = makeRaid0System(
        "base", disk::enterpriseDrive(2.0, 10000, 2), 1);
    const RunResult rb = runTrace(trace, base);

    SystemConfig nosk = base;
    nosk.array.drive.seekScale = 0.0;
    const RunResult rs = runTrace(trace, nosk);

    SystemConfig norot = base;
    norot.array.drive.rotScale = 0.0;
    const RunResult rr = runTrace(trace, norot);

    EXPECT_LT(rs.meanResponseMs, rb.meanResponseMs);
    EXPECT_LT(rr.meanResponseMs, rb.meanResponseMs);
    EXPECT_DOUBLE_EQ(rr.meanRotMs, 0.0);
}

TEST(BenchScale, EnvOverrides)
{
    EXPECT_EQ(config::resolveEnv({}).benchRequests(100000), 100000u);
    EXPECT_EQ(config::resolveEnv({"IDP_SCALE=0.5"}).benchRequests(100000),
              50000u);
    EXPECT_EQ(config::resolveEnv({"IDP_SCALE=0.5", "IDP_REQUESTS=1234"})
                  .benchRequests(100000),
              1234u);
}

TEST(BenchScale, FloorsAtMinimum)
{
    EXPECT_GE(config::resolveEnv({"IDP_SCALE=0.000001"})
                  .benchRequests(100000),
              1000u);
}

TEST(RunLifecycle, ModeFollowsTheConfig)
{
    SystemConfig config =
        makeRaid0System("r0", disk::barracudaEs750(), 4);
    config.pdesWorkers = 2;
    config.tracing.enabled = true;
    workload::IoRequest req;
    req.id = 1;
    req.lba = 4096;
    req.sectors = 64;
    {
        // Open loop: the PDES engine, and the run's own tracer and
        // registry when the build keeps telemetry.
        core::Run run(config);
        EXPECT_NE(run.pdes(), nullptr);
        EXPECT_EQ(telemetry::activeRegistry() != nullptr,
                  telemetry::kCompiledIn);
        run.sim().schedule(0, [&run, req] { run.array().submit(req); });
        run.drain();
        EXPECT_EQ(run.metrics().empty(), !telemetry::kCompiledIn);
        EXPECT_EQ(run.trace() != nullptr, telemetry::kCompiledIn);
        EXPECT_EQ(run.array().stats().logicalCompletions, 1u);
    }
    EXPECT_EQ(telemetry::activeRegistry(), nullptr);
    {
        // A completion callback makes the run closed loop: serial and
        // untraced, whatever the config asks.
        std::uint64_t seen = 0;
        core::Run run(config, [&seen](const workload::IoRequest &,
                                      sim::Tick) { ++seen; });
        EXPECT_EQ(run.pdes(), nullptr);
        EXPECT_EQ(telemetry::activeRegistry(), nullptr);
        run.sim().schedule(0, [&run, req] { run.array().submit(req); });
        run.drain();
        EXPECT_EQ(seen, 1u);
        EXPECT_TRUE(run.metrics().empty());
        EXPECT_EQ(run.trace(), nullptr);
    }
}

} // namespace
