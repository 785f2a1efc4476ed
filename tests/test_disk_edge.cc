/**
 * @file
 * Edge-case tests for the drive model: FIFO cache-hit ordering,
 * write settle, controller overhead, end-of-disk transfers, arm
 * position tracking, destage interaction with arriving traffic.
 */

#include <gtest/gtest.h>

#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using disk::DriveSpec;
using workload::IoRequest;

DriveSpec
testSpec()
{
    return disk::enterpriseDrive(2.0, 10000, 2);
}

using Harness = test::DriveRig;

IoRequest
req(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
    bool is_read)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

TEST(DiskEdge, CacheHitsCompleteInOrder)
{
    Harness h(testSpec());
    h.submitAt(0, req(1, 1000, 8, true)); // warms the cache
    // Two hits issued at the same instant must complete in issue
    // order (the bus-time model is size-monotone; equal sizes tie to
    // event order).
    h.submitAt(sim::msToTicks(40), req(2, 1000, 8, true));
    h.submitAt(sim::msToTicks(40), req(3, 1000, 8, true));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 3u);
    EXPECT_EQ(h.completions[1].req.id, 2u);
    EXPECT_EQ(h.completions[2].req.id, 3u);
    EXPECT_LE(h.completions[1].done, h.completions[2].done);
}

TEST(DiskEdge, WriteSettleLengthensSeek)
{
    // Same LBA distance, read vs write: the write's seek includes the
    // settle surcharge.
    sim::Tick seeks[2];
    for (int v = 0; v < 2; ++v) {
        Harness h(testSpec());
        const geom::Lba far =
            h.drive.geometry().totalSectors() * 3 / 4;
        h.submitAt(0, req(1, far, 8, v == 0));
        h.simul.run();
        seeks[v] = h.completions[0].info.seekTicks;
    }
    EXPECT_EQ(seeks[1] - seeks[0],
              sim::msToTicks(testSpec().seek.writeSettleMs));
}

TEST(DiskEdge, ControllerOverheadFloorsService)
{
    // Even a 1-sector zero-seek access pays the command overhead.
    DriveSpec spec = testSpec();
    spec.seekScale = 0.0;
    spec.rotScale = 0.0;
    Harness h(spec);
    h.submitAt(0, req(1, 0, 1, false));
    h.simul.run();
    EXPECT_GE(h.completions[0].info.xferTicks,
              sim::msToTicks(spec.controllerOverheadMs));
}

TEST(DiskEdge, TransferAtDiskEndTruncates)
{
    // A request ending exactly at the last sector must not walk off
    // the geometry.
    Harness h(testSpec());
    const geom::Lba total = h.drive.geometry().totalSectors();
    h.submitAt(0, req(1, total - 64, 64, true));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 1u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(DiskEdge, ArmTracksLastCylinder)
{
    Harness h(testSpec());
    const geom::Lba lba = h.drive.geometry().totalSectors() / 2;
    const std::uint32_t target =
        h.drive.geometry().lbaToChs(lba).cylinder;
    h.submitAt(0, req(1, lba, 8, true));
    h.simul.run();
    EXPECT_EQ(h.drive.armCylinder(0), target);
}

TEST(DiskEdge, DestageYieldsToArrivals)
{
    // Write-back destages run only in idle gaps; foreground arrivals
    // during a destage queue behind it but the drive drains fully.
    DriveSpec spec = testSpec();
    spec.cache.writeBack = true;
    Harness h(spec);
    for (int i = 0; i < 8; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   req(i, 4096 + 512 * i, 8, false));
    // Reads arrive while destaging is underway.
    const geom::Lba mid = h.drive.geometry().totalSectors() / 2;
    for (int i = 0; i < 8; ++i)
        h.submitAt(sim::msToTicks(30.0) + i * 2 * sim::kTicksPerMs,
                   req(100 + i, mid + 4096 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 16u);
    EXPECT_TRUE(h.drive.idle());
    EXPECT_EQ(h.drive.diskCache().dirtyCount(), 0u);
}

TEST(DiskEdge, QueueTicksMeasureWaiting)
{
    Harness h(testSpec());
    // Two requests at t=0: the second's queueTicks must cover the
    // first's service.
    h.submitAt(0, req(1, 1000000, 8, false));
    h.submitAt(0,
               req(2, h.drive.geometry().totalSectors() - 512, 8,
                   false));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].info.queueTicks, 0u);
    EXPECT_GT(h.completions[1].info.queueTicks, 0u);
}

TEST(DiskEdge, InFlightAndQueueDepthConsistent)
{
    Harness h(testSpec());
    h.drive.submit(req(1, 1000000, 8, true));
    h.drive.submit(req(2, 2000000, 8, true));
    h.drive.submit(req(3, 3000000, 8, true));
    // One dispatched (single arm), two pending.
    EXPECT_EQ(h.drive.inFlight(), 1u);
    EXPECT_EQ(h.drive.queueDepth(), 2u);
    h.simul.run();
    EXPECT_EQ(h.drive.inFlight(), 0u);
    EXPECT_EQ(h.drive.queueDepth(), 0u);
}

TEST(DiskEdge, ReadsFractionTracked)
{
    Harness h(testSpec());
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 5 * sim::kTicksPerMs,
                   req(i, 1000000 + 65536 * i, 8, i % 2 == 0));
    h.simul.run();
    EXPECT_EQ(h.drive.stats().reads, 5u);
    EXPECT_EQ(h.drive.stats().arrivals, 10u);
}

TEST(DiskEdge, ResponsesNeverBeforeArrival)
{
    Harness h(disk::makeIntraDiskParallel(testSpec(), 3));
    sim::Rng rng(83);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 400; ++i)
        h.submitAt(rng.uniformInt(300ULL * sim::kTicksPerMs),
                   req(i, rng.uniformInt(space), 8, rng.chance(0.5)));
    h.simul.run();
    for (std::size_t i = 0; i < h.completions.size(); ++i)
        EXPECT_GE(h.completions[i].done, h.completions[i].req.arrival);
}

TEST(DiskEdge, SameTickSubmissionsDeterministic)
{
    // Two identical runs with all-equal timestamps must produce the
    // identical completion sequence (event-queue FIFO tie-break).
    std::vector<std::uint64_t> orders[2];
    for (int v = 0; v < 2; ++v) {
        Harness h(disk::makeIntraDiskParallel(testSpec(), 2));
        sim::Rng rng(91);
        const std::uint64_t space =
            h.drive.geometry().totalSectors() - 8;
        for (int i = 0; i < 100; ++i)
            h.submitAt(0, req(i, rng.uniformInt(space), 8, true));
        h.simul.run();
        for (const auto &[r, done, info] : h.completions)
            orders[v].push_back(r.id);
    }
    EXPECT_EQ(orders[0], orders[1]);
}

} // namespace
