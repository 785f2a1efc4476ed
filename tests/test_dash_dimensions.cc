/**
 * @file
 * Tests for the DASH H and S dimensions: multiple heads per arm
 * (rotational-latency reduction without extra VCMs) and parallel
 * surface streaming (media-transfer division), plus configuration
 * validation.
 */

#include <gtest/gtest.h>

#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using disk::DiskDrive;
using disk::DriveSpec;
using workload::IoRequest;

DriveSpec
testSpec()
{
    return disk::enterpriseDrive(2.0, 10000, 2);
}

using Harness = test::DriveRig;

IoRequest
randomRead(sim::Rng &rng, const DiskDrive &drive, std::uint64_t id,
           std::uint32_t sectors = 8)
{
    IoRequest r;
    r.id = id;
    r.lba = rng.uniformInt(drive.geometry().totalSectors() - sectors);
    r.sectors = sectors;
    r.isRead = true;
    return r;
}

double
meanRotMs(const DriveSpec &spec, int n, std::uint64_t seed)
{
    Harness h(spec);
    sim::Rng rng(seed);
    for (int i = 0; i < n; ++i)
        h.submitAt(i * 25 * sim::kTicksPerMs,
                   randomRead(rng, h.drive, i));
    h.simul.run();
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto &[req, done, info] : h.completions) {
        if (info.cacheHit)
            continue;
        sum += sim::ticksToMs(info.rotTicks);
        ++count;
    }
    return sum / static_cast<double>(count);
}

TEST(DashHeads, TwoHeadsHalveRotLatency)
{
    DriveSpec one = testSpec();
    one.seekScale = 0.0; // isolate rotation
    DriveSpec two = one;
    two.dash.headsPerArm = 2;
    const double m1 = meanRotMs(one, 400, 11);
    const double m2 = meanRotMs(two, 400, 11);
    // Expected waits: T/2 vs T/4 for evenly staggered heads.
    EXPECT_NEAR(m2, m1 / 2.0, m1 * 0.12);
}

TEST(DashHeads, FourHeadsQuarterRotLatency)
{
    DriveSpec one = testSpec();
    one.seekScale = 0.0;
    DriveSpec four = one;
    four.dash.headsPerArm = 4;
    const double m1 = meanRotMs(one, 400, 12);
    const double m4 = meanRotMs(four, 400, 12);
    EXPECT_NEAR(m4, m1 / 4.0, m1 * 0.10);
}

TEST(DashHeads, ComposesWithArms)
{
    // A2H2 covers the circumference like four evenly spaced heads.
    DriveSpec a2h2 = disk::makeIntraDiskParallel(testSpec(), 2);
    a2h2.dash.headsPerArm = 2;
    a2h2.seekScale = 0.0;
    DriveSpec a4 = disk::makeIntraDiskParallel(testSpec(), 4);
    a4.seekScale = 0.0;
    const double m_a2h2 = meanRotMs(a2h2, 400, 13);
    const double m_a4 = meanRotMs(a4, 400, 13);
    EXPECT_NEAR(m_a2h2, m_a4, m_a4 * 0.35);
}

TEST(DashHeads, DoesNotChangeSeeks)
{
    DriveSpec one = testSpec();
    DriveSpec two = testSpec();
    two.dash.headsPerArm = 2;
    double seeks[2];
    int v = 0;
    for (const DriveSpec &spec : {one, two}) {
        Harness h(spec);
        sim::Rng rng(14);
        for (int i = 0; i < 200; ++i)
            h.submitAt(i * 25 * sim::kTicksPerMs,
                       randomRead(rng, h.drive, i));
        h.simul.run();
        double sum = 0;
        for (const auto &[req, done, info] : h.completions)
            sum += sim::ticksToMs(info.seekTicks);
        seeks[v++] = sum;
    }
    // Same request stream, same arm trajectory: identical seeks.
    EXPECT_DOUBLE_EQ(seeks[0], seeks[1]);
}

TEST(DashSurfaces, ParallelSurfacesDivideTransfer)
{
    DriveSpec one = testSpec();
    DriveSpec two = testSpec();
    two.dash.surfaces = 2;
    sim::Tick xfer[2];
    int v = 0;
    for (const DriveSpec &spec : {one, two}) {
        Harness h(spec);
        const std::uint32_t spt =
            h.drive.geometry().sectorsPerTrack(0) / 2;
        IoRequest req;
        req.id = 1;
        req.lba = 0;
        req.sectors = spt; // half a track
        req.isRead = true;
        h.submitAt(0, req);
        h.simul.run();
        xfer[v++] = h.completions[0].info.xferTicks;
    }
    // Controller overhead is constant; media time halves.
    const sim::Tick overhead = sim::msToTicks(
        testSpec().controllerOverheadMs);
    EXPECT_NEAR(static_cast<double>(xfer[1] - overhead),
                static_cast<double>(xfer[0] - overhead) / 2.0,
                static_cast<double>(xfer[0]) * 0.02);
}

TEST(DashSurfaces, LittleEffectOnSmallRequests)
{
    // The paper's reason for dismissing fine-grained S/H transfer
    // parallelism for server workloads: transfer is tiny anyway.
    DriveSpec one = testSpec();
    DriveSpec four = testSpec();
    four.dash.surfaces = 4;
    double means[2];
    int v = 0;
    for (const DriveSpec &spec : {one, four}) {
        Harness h(spec);
        sim::Rng rng(15);
        for (int i = 0; i < 300; ++i)
            h.submitAt(i * 20 * sim::kTicksPerMs,
                       randomRead(rng, h.drive, i, 8));
        h.simul.run();
        double sum = 0;
        for (const auto &[req, done, info] : h.completions)
            sum += sim::ticksToMs(info.seekTicks + info.rotTicks +
                                  info.xferTicks);
        means[v++] = sum / 300.0;
    }
    EXPECT_NEAR(means[1], means[0], means[0] * 0.05);
}

TEST(DashConfigValidation, RejectsZeroHeads)
{
    DriveSpec spec = testSpec();
    spec.dash.headsPerArm = 0;
    EXPECT_DEATH(spec.normalize(), "head per arm");
}

TEST(DashConfigValidation, RejectsExcessSurfaces)
{
    DriveSpec spec = testSpec(); // 2 platters -> 4 surfaces
    spec.dash.surfaces = 5;
    EXPECT_DEATH(spec.normalize(), "surface parallelism");
}

TEST(DashConfigValidation, RejectsMultipleStacks)
{
    DriveSpec spec = testSpec();
    spec.dash.diskStacks = 2;
    EXPECT_DEATH(spec.normalize(), "one stack per drive");
}

TEST(DashConfigValidation, AzimuthCountMustMatchArms)
{
    sim::Simulator simul;
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), 4);
    spec.armAzimuths = {0.0, 0.5};
    EXPECT_DEATH(DiskDrive(simul, spec, nullptr),
                 "armAzimuths must match");
}

TEST(DashDrain, MixedDimensionsComplete)
{
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), 2);
    spec.dash.headsPerArm = 2;
    spec.dash.surfaces = 2;
    Harness h(spec);
    sim::Rng rng(16);
    for (int i = 0; i < 500; ++i)
        h.submitAt(rng.uniformInt(500ULL * sim::kTicksPerMs),
                   randomRead(rng, h.drive, i, 1 + i % 64));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 500u);
    EXPECT_TRUE(h.drive.idle());
}

} // namespace
