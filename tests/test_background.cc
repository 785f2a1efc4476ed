/**
 * @file
 * Tests for strict-priority background service (the freeblock-
 * scheduling role of intra-disk parallelism, paper Section 5).
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
req(std::uint64_t id, geom::Lba lba, bool background)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = 8;
    r.isRead = true;
    r.background = background;
    return r;
}

TEST(Background, ForegroundAlwaysServicedFirst)
{
    Harness h(testSpec());
    sim::Rng rng(31);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    // Submit a burst: 20 background then 20 foreground, same tick.
    for (int i = 0; i < 20; ++i)
        h.submitAt(0, req(i, rng.uniformInt(space), true));
    for (int i = 20; i < 40; ++i)
        h.submitAt(0, req(i, rng.uniformInt(space), false));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 40u);
    // All foreground requests (cache misses) finish before the bulk
    // of the background set: at most one background request can slip
    // in ahead (the one dispatched before any foreground arrived).
    sim::Tick last_fg = 0;
    for (const auto &[r, t, info] : h.completions)
        if (!r.background)
            last_fg = std::max(last_fg, t);
    std::uint64_t bg_before_fg = 0;
    for (const auto &[r, t, info] : h.completions)
        if (r.background && t < last_fg)
            ++bg_before_fg;
    EXPECT_LE(bg_before_fg, 2u);
}

TEST(Background, ServicedWhenIdle)
{
    Harness h(testSpec());
    sim::Rng rng(32);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 30; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   req(i, rng.uniformInt(space), true));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 30u);
    EXPECT_EQ(h.drive.stats().backgroundCompletions, 30u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(Background, CountedSeparately)
{
    Harness h(testSpec());
    sim::Rng rng(33);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 5 * sim::kTicksPerMs,
                   req(i, rng.uniformInt(space), i % 2 == 0));
    h.simul.run();
    EXPECT_EQ(h.drive.stats().completions, 10u);
    EXPECT_EQ(h.drive.stats().backgroundCompletions, 5u);
}

TEST(Background, QueueDepthIncludesBoth)
{
    Harness h(testSpec());
    // Submit directly (simulator not yet run): both queues populated.
    IoRequest fg = req(1, 1000, false);
    IoRequest bg = req(2, 2000, true);
    h.drive.submit(fg); // dispatches immediately (drive idle)
    h.drive.submit(bg); // waits: arm busy
    IoRequest bg2 = req(3, 3000, true);
    h.drive.submit(bg2);
    EXPECT_EQ(h.drive.queueDepth(), 2u);
    EXPECT_FALSE(h.drive.idle());
    h.simul.run();
    EXPECT_TRUE(h.drive.idle());
}

TEST(Background, ForegroundLatencyUnderScanLoad)
{
    // A continuous pre-queued background scan must not starve later
    // foreground requests on a multi-arm drive.
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), 2);
    Harness h(spec);
    sim::Rng rng(34);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 100; ++i)
        h.submitAt(0, req(1000 + i, rng.uniformInt(space), true));
    // Foreground arrives mid-scan.
    h.submitAt(50 * sim::kTicksPerMs,
               req(1, rng.uniformInt(space), false));
    h.simul.run();
    sim::Tick fg_done = 0;
    for (const auto &[r, t, info] : h.completions)
        if (!r.background)
            fg_done = t;
    // The foreground request waits at most a couple of in-service
    // background requests, not the whole scan.
    EXPECT_LT(sim::ticksToMs(fg_done) - 50.0, 60.0);
}

} // namespace
