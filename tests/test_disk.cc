/**
 * @file
 * Disk drive model tests: single-request service anatomy, cache fast
 * path, the limit-study scaling knobs, multi-actuator behaviour, mode
 * accounting, and the motion/channel concurrency budgets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using disk::DiskDrive;
using disk::DriveSpec;
using workload::IoRequest;

/** A small, fast-to-build drive for unit tests. */
DriveSpec
testSpec()
{
    DriveSpec spec = disk::enterpriseDrive(2.0, 10000, 2);
    spec.name = "test";
    return spec;
}

using Harness = test::DriveRig;
using test::Completion;

IoRequest
makeReq(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
        bool is_read)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

TEST(DiskDrive, SingleReadAnatomy)
{
    Harness h(testSpec());
    h.submitAt(0, makeReq(1, 1000000, 8, true));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 1u);
    const Completion &c = h.completions[0];
    EXPECT_FALSE(c.info.cacheHit);
    // Response = seek + rot + transfer (queue was empty).
    EXPECT_EQ(c.done, c.info.seekTicks + c.info.rotTicks +
                  c.info.xferTicks);
    // Rotational wait bounded by one revolution.
    EXPECT_LT(c.info.rotTicks, h.drive.spindle().periodTicks());
    // 10k RPM: full revolution is 6 ms.
    EXPECT_LT(sim::ticksToMs(c.done), 6.0 + 10.0 + 1.0);
}

TEST(DiskDrive, CompletionCountsMatch)
{
    Harness h(testSpec());
    sim::Rng rng(1);
    const std::uint64_t total =
        h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 200; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   makeReq(i, rng.uniformInt(total), 8,
                           rng.chance(0.5)));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 200u);
    EXPECT_EQ(h.drive.stats().arrivals, 200u);
    EXPECT_EQ(h.drive.stats().completions, 200u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(DiskDrive, CacheHitFastPath)
{
    Harness h(testSpec());
    h.submitAt(0, makeReq(1, 5000, 8, true));
    h.submitAt(sim::msToTicks(50.0), makeReq(2, 5000, 8, true));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_FALSE(h.completions[0].info.cacheHit);
    EXPECT_TRUE(h.completions[1].info.cacheHit);
    // The hit is served at bus speed: well under a millisecond.
    const sim::Tick hit_latency =
        h.completions[1].done - h.completions[1].req.arrival;
    EXPECT_LT(sim::ticksToMs(hit_latency), 1.0);
    EXPECT_EQ(h.drive.stats().cacheHits, 1u);
}

TEST(DiskDrive, ReadAheadHitsSequentialStream)
{
    Harness h(testSpec());
    h.submitAt(0, makeReq(1, 10000, 8, true));
    h.submitAt(sim::msToTicks(30.0), makeReq(2, 10008, 8, true));
    h.simul.run();
    EXPECT_TRUE(h.completions[1].info.cacheHit);
}

TEST(DiskDrive, WriteInvalidatesCachedRead)
{
    Harness h(testSpec());
    h.submitAt(0, makeReq(1, 7000, 8, true));
    h.submitAt(sim::msToTicks(30.0), makeReq(2, 7000, 8, false));
    h.submitAt(sim::msToTicks(60.0), makeReq(3, 7000, 8, true));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 3u);
    EXPECT_FALSE(h.completions[2].info.cacheHit);
}

TEST(DiskDrive, ZeroSeekWhenArmOnCylinder)
{
    Harness h(testSpec());
    // Two reads on the same cylinder, far apart in time.
    h.submitAt(0, makeReq(1, 20000, 8, true));
    h.submitAt(sim::msToTicks(40.0), makeReq(2, 21000, 8, true));
    h.simul.run();
    const auto &g = h.drive.geometry();
    if (g.lbaToChs(20000).cylinder == g.lbaToChs(21000).cylinder &&
        !h.completions[1].info.cacheHit) {
        EXPECT_EQ(h.completions[1].info.seekTicks, 0u);
    }
}

TEST(DiskDrive, SeekScaleZeroEliminatesSeeks)
{
    DriveSpec spec = testSpec();
    spec.seekScale = 0.0;
    Harness h(spec);
    sim::Rng rng(2);
    const std::uint64_t total =
        h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 100; ++i)
        h.submitAt(i * 2 * sim::kTicksPerMs,
                   makeReq(i, rng.uniformInt(total), 8, true));
    h.simul.run();
    for (const auto &c : h.completions)
        EXPECT_EQ(c.info.seekTicks, 0u);
}

TEST(DiskDrive, RotScaleZeroEliminatesRotWait)
{
    DriveSpec spec = testSpec();
    spec.rotScale = 0.0;
    Harness h(spec);
    sim::Rng rng(3);
    const std::uint64_t total =
        h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 100; ++i)
        h.submitAt(i * 2 * sim::kTicksPerMs,
                   makeReq(i, rng.uniformInt(total), 8, true));
    h.simul.run();
    for (const auto &c : h.completions)
        EXPECT_EQ(c.info.rotTicks, 0u);
}

TEST(DiskDrive, HalfRotScaleHalvesMeanWait)
{
    DriveSpec full = testSpec();
    DriveSpec half = testSpec();
    half.rotScale = 0.5;
    double mean_full = 0.0, mean_half = 0.0;
    for (int variant = 0; variant < 2; ++variant) {
        Harness h(variant == 0 ? full : half);
        sim::Rng rng(4);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        for (int i = 0; i < 400; ++i)
            h.submitAt(i * 20 * sim::kTicksPerMs,
                       makeReq(i, rng.uniformInt(total), 8, true));
        h.simul.run();
        double sum = 0.0;
        for (const auto &c : h.completions)
            sum += sim::ticksToMs(c.info.rotTicks);
        (variant == 0 ? mean_full : mean_half) =
            sum / h.completions.size();
    }
    EXPECT_NEAR(mean_half, mean_full / 2.0, mean_full * 0.1);
}

TEST(DiskDrive, MultiActuatorReducesRotLatency)
{
    // The paper's core effect: with n evenly spaced arms the expected
    // rotational wait drops roughly as 1/n (all arms idle).
    double means[3] = {0, 0, 0};
    const std::uint32_t arm_counts[3] = {1, 2, 4};
    for (int v = 0; v < 3; ++v) {
        DriveSpec spec =
            disk::makeIntraDiskParallel(testSpec(), arm_counts[v]);
        // Zero seeks isolate the rotational effect: SPTF then picks
        // the arm with the smallest angular gap, whose expectation is
        // period / (2n) for n evenly spaced arms.
        spec.seekScale = 0.0;
        Harness h(spec);
        sim::Rng rng(5);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        // Widely spaced: each request sees an idle drive.
        for (int i = 0; i < 500; ++i)
            h.submitAt(i * 25 * sim::kTicksPerMs,
                       makeReq(i, rng.uniformInt(total), 8, true));
        h.simul.run();
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto &c : h.completions) {
            if (c.info.cacheHit)
                continue;
            sum += sim::ticksToMs(c.info.rotTicks);
            ++n;
        }
        means[v] = sum / static_cast<double>(n);
    }
    EXPECT_LT(means[1], means[0] * 0.75);
    EXPECT_LT(means[2], means[1] * 0.80);
}

TEST(DiskDrive, MultiActuatorImprovesBacklogMakespan)
{
    // Submit a backlog at t=0; more arms must not be slower, and
    // should be measurably faster.
    sim::Tick makespan[2] = {0, 0};
    const std::uint32_t arm_counts[2] = {1, 4};
    for (int v = 0; v < 2; ++v) {
        DriveSpec spec =
            disk::makeIntraDiskParallel(testSpec(), arm_counts[v]);
        Harness h(spec);
        sim::Rng rng(6);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        for (int i = 0; i < 300; ++i)
            h.submitAt(0, makeReq(i, rng.uniformInt(total), 8, true));
        makespan[v] = h.simul.run();
    }
    EXPECT_LT(makespan[1], makespan[0]);
}

TEST(DiskDrive, ArmAccessesBalanced)
{
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), 4);
    Harness h(spec);
    sim::Rng rng(7);
    const std::uint64_t total = h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 800; ++i)
        h.submitAt(i * 3 * sim::kTicksPerMs,
                   makeReq(i, rng.uniformInt(total), 8, true));
    h.simul.run();
    const auto &accesses = h.drive.stats().armAccesses;
    ASSERT_EQ(accesses.size(), 4u);
    for (auto a : accesses)
        EXPECT_GT(a, 50u); // every arm participates
}

TEST(DiskDrive, ModeTimesSumToWallClock)
{
    Harness h(testSpec());
    sim::Rng rng(8);
    const std::uint64_t total = h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 100; ++i)
        h.submitAt(i * 4 * sim::kTicksPerMs,
                   makeReq(i, rng.uniformInt(total), 8, true));
    const sim::Tick end = h.simul.run();
    const stats::ModeTimes times = h.drive.finishModeTimes();
    sim::Tick sum = 0;
    for (auto w : times.wall)
        sum += w;
    EXPECT_EQ(sum, times.total);
    EXPECT_EQ(times.total, end);
    // The drive did real work in every mechanical mode.
    EXPECT_GT(times.wall[static_cast<std::size_t>(
                  stats::DiskMode::Seek)],
              0u);
    EXPECT_GT(times.wall[static_cast<std::size_t>(
                  stats::DiskMode::RotWait)],
              0u);
    EXPECT_GT(times.wall[static_cast<std::size_t>(
                  stats::DiskMode::Transfer)],
              0u);
    EXPECT_GT(times.vcmSeconds, 0u);
    EXPECT_GT(times.channelSeconds, 0u);
}

TEST(DiskDrive, NonzeroSeekFractionRisesWithArms)
{
    // Paper Section 7.2: SPTF prefers short seeks over long rotational
    // waits, so adding arms *raises* the fraction of non-zero seeks.
    double frac[2] = {0, 0};
    const std::uint32_t arm_counts[2] = {1, 4};
    for (int v = 0; v < 2; ++v) {
        DriveSpec spec =
            disk::makeIntraDiskParallel(testSpec(), arm_counts[v]);
        Harness h(spec);
        sim::Rng rng(9);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        // Moderate load so the queue has depth for SPTF to exploit.
        for (int i = 0; i < 600; ++i)
            h.submitAt(i * 3 * sim::kTicksPerMs,
                       makeReq(i, rng.uniformInt(total), 8, true));
        h.simul.run();
        frac[v] = h.drive.stats().nonzeroSeekFraction();
    }
    EXPECT_GE(frac[1], frac[0] * 0.95);
}

TEST(DiskDrive, WriteBackAbsorbsWritesAndDestages)
{
    DriveSpec spec = testSpec();
    spec.cache.writeBack = true;
    Harness h(spec);
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   makeReq(i, 4096 + i * 512, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 10u);
    // All ten writes were absorbed (fast) and destaged later.
    for (const auto &c : h.completions)
        EXPECT_TRUE(c.info.cacheHit);
    EXPECT_GT(h.drive.stats().destages, 0u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(DiskDrive, LargeTransferSpansTracks)
{
    Harness h(testSpec());
    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    // 3 tracks' worth from LBA 0.
    h.submitAt(0, makeReq(1, 0, spt * 3, true));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 1u);
    // Transfer takes at least 3 revolutions' worth of sweep.
    const double xfer_ms = sim::ticksToMs(h.completions[0].info.xferTicks);
    EXPECT_GT(xfer_ms, h.drive.spindle().periodMs() * 2.5);
}

TEST(DiskDrive, RequestBeyondCapacityPanics)
{
    Harness h(testSpec());
    const geom::Lba total = h.drive.geometry().totalSectors();
    IoRequest bad = makeReq(1, total - 2, 8, true);
    EXPECT_DEATH(h.drive.submit(bad), "beyond device capacity");
}

/**
 * The scheduling window is the k oldest pending requests. A one-arm
 * SSTF drive with every request queued at tick 0 makes it visible:
 * each dispatch after the first must be the nearest of the k oldest
 * still-pending requests to the cylinder the arm last served, ties to
 * the older request. Writes, because the drive is write-through and
 * every write reaches the media (no read-cache hits).
 */
TEST(DiskDrive, SchedulerWindowRespected)
{
    for (const std::uint32_t window : {1u, 2u, 3u, 8u}) {
        DriveSpec spec = testSpec();
        spec.sched.policy = sched::Policy::Sstf;
        spec.schedWindow = window;
        Harness h(spec);
        sim::Rng rng(10);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        std::vector<IoRequest> pending; // FIFO order
        for (int i = 0; i < 60; ++i) {
            pending.push_back(
                makeReq(i, rng.uniformInt(total), 8, false));
            h.submitAt(0, pending.back());
        }
        h.simul.run();
        ASSERT_EQ(h.completions.size(), 60u) << "window " << window;
        if (window == 1) {
            // Degenerate window: media service follows submission
            // order.
            for (std::size_t i = 1; i < h.completions.size(); ++i)
                EXPECT_LT(h.completions[i - 1].req.id,
                          h.completions[i].req.id);
        }

        auto cylinder = [&h](const IoRequest &r) {
            return h.drive.geometry().lbaToChs(r.lba).cylinder;
        };
        // The first submit finds the arm idle and dispatches alone.
        ASSERT_EQ(h.completions[0].req.id, pending.front().id);
        std::uint32_t arm = cylinder(pending.front());
        pending.erase(pending.begin());
        for (std::size_t i = 1; i < h.completions.size(); ++i) {
            const std::size_t k =
                std::min<std::size_t>(window, pending.size());
            std::size_t want = 0;
            std::uint32_t best_dist = 0;
            for (std::size_t j = 0; j < k; ++j) {
                const std::uint32_t c = cylinder(pending[j]);
                const std::uint32_t d = c > arm ? c - arm : arm - c;
                if (j == 0 || d < best_dist) {
                    best_dist = d;
                    want = j;
                }
            }
            ASSERT_EQ(h.completions[i].req.id, pending[want].id)
                << "window " << window << ", completion " << i;
            arm = cylinder(pending[want]);
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(want));
        }
    }
}

TEST(DiskDrive, MultiChannelExtensionAllowsOverlap)
{
    // The technical-report MC extension: two concurrent transfers.
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), 2);
    spec.maxConcurrentTransfers = 2;
    spec.maxConcurrentSeeks = 2;
    Harness h(spec);
    sim::Rng rng(11);
    const std::uint64_t total = h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 200; ++i)
        h.submitAt(0, makeReq(i, rng.uniformInt(total), 64, true));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 200u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(DiskDrive, DeterministicReplay)
{
    sim::Tick ends[2];
    for (int v = 0; v < 2; ++v) {
        Harness h(disk::makeIntraDiskParallel(testSpec(), 3));
        sim::Rng rng(12);
        const std::uint64_t total =
            h.drive.geometry().totalSectors() - 64;
        for (int i = 0; i < 300; ++i)
            h.submitAt(i * sim::kTicksPerMs,
                       makeReq(i, rng.uniformInt(total), 8,
                               rng.chance(0.6)));
        ends[v] = h.simul.run();
    }
    EXPECT_EQ(ends[0], ends[1]);
}

/** Parameterized sweep: drain invariant across DASH configurations. */
class DiskDrain
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, // arms
                                                 std::uint32_t, // seeks
                                                 std::uint32_t>> // chans
{
};

TEST_P(DiskDrain, AllRequestsComplete)
{
    const auto [arms, seeks, chans] = GetParam();
    DriveSpec spec = disk::makeIntraDiskParallel(testSpec(), arms);
    spec.maxConcurrentSeeks = seeks;
    spec.maxConcurrentTransfers = chans;
    Harness h(spec);
    sim::Rng rng(13 + arms);
    const std::uint64_t total = h.drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 400; ++i)
        h.submitAt(rng.uniformInt(
                       static_cast<std::uint64_t>(200) *
                       sim::kTicksPerMs),
                   makeReq(i, rng.uniformInt(total), 8,
                           rng.chance(0.6)));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 400u);
    EXPECT_TRUE(h.drive.idle());
    const stats::ModeTimes times = h.drive.finishModeTimes();
    sim::Tick sum = 0;
    for (auto w : times.wall)
        sum += w;
    EXPECT_EQ(sum, times.total);
}

INSTANTIATE_TEST_SUITE_P(
    DashConfigs, DiskDrain,
    ::testing::Values(std::make_tuple(1u, 1u, 1u),
                      std::make_tuple(2u, 1u, 1u),
                      std::make_tuple(3u, 1u, 1u),
                      std::make_tuple(4u, 1u, 1u),
                      std::make_tuple(4u, 4u, 1u),
                      std::make_tuple(4u, 1u, 4u),
                      std::make_tuple(4u, 4u, 4u),
                      std::make_tuple(2u, 2u, 2u)));

} // namespace
