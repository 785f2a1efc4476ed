/**
 * @file
 * Tests for media fault injection (retry after a revolution, hard
 * errors after the retry budget) and table-driven seek curves.
 */

#include <gtest/gtest.h>

#include "disk/disk_drive.hh"
#include "mech/seek_model.hh"
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
read(std::uint64_t id, geom::Lba lba)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = 8;
    r.isRead = true;
    return r;
}

TEST(Faults, NoInjectionByDefault)
{
    Harness h(testSpec());
    sim::Rng rng(201);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 200; ++i)
        h.submitAt(i * 3 * sim::kTicksPerMs,
                   read(i, rng.uniformInt(space)));
    h.simul.run();
    EXPECT_EQ(h.drive.stats().mediaRetries, 0u);
    EXPECT_EQ(h.drive.stats().hardErrors, 0u);
    for (const auto &[r, done, info] : h.completions)
        EXPECT_FALSE(info.failed);
}

TEST(Faults, RetriesObservedAtModerateRate)
{
    DriveSpec spec = testSpec();
    spec.mediaRetryRate = 0.2;
    Harness h(spec);
    sim::Rng rng(202);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 400; ++i)
        h.submitAt(i * 5 * sim::kTicksPerMs,
                   read(i, rng.uniformInt(space)));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 400u);
    // ~20% of accesses retry at least once.
    EXPECT_GT(h.drive.stats().mediaRetries, 40u);
    EXPECT_LT(h.drive.stats().mediaRetries, 200u);
    EXPECT_TRUE(h.drive.idle());
}

TEST(Faults, RetryCostsOneRevolution)
{
    // Deterministic failure: every access retries exactly maxRetries
    // times, each costing a full revolution of extra rot time.
    DriveSpec spec = testSpec();
    spec.mediaRetryRate = 1.0;
    spec.maxRetries = 2;
    Harness h(spec);
    h.submitAt(0, read(1, 1000000));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 1u);
    const sim::Tick rev = h.drive.spindle().periodTicks();
    EXPECT_GE(h.completions[0].info.rotTicks, 2 * rev);
    EXPECT_TRUE(h.completions[0].info.failed);
    EXPECT_EQ(h.drive.stats().mediaRetries, 2u);
    EXPECT_EQ(h.drive.stats().hardErrors, 1u);
}

TEST(Faults, HardErrorsRareWhenRetriesHelp)
{
    // 20% failure with 3 retries: hard errors ~0.2^? — the budget is
    // only exhausted after maxRetries consecutive failures.
    DriveSpec spec = testSpec();
    spec.mediaRetryRate = 0.2;
    spec.maxRetries = 3;
    Harness h(spec);
    sim::Rng rng(203);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (int i = 0; i < 500; ++i)
        h.submitAt(i * 5 * sim::kTicksPerMs,
                   read(i, rng.uniformInt(space)));
    h.simul.run();
    // P(>=3 failures) = 0.008 -> expect a handful at most.
    EXPECT_LT(h.drive.stats().hardErrors, 15u);
}

TEST(Faults, DeterministicBySeed)
{
    std::uint64_t retries[2];
    for (int v = 0; v < 2; ++v) {
        DriveSpec spec = testSpec();
        spec.mediaRetryRate = 0.3;
        Harness h(spec);
        sim::Rng rng(204);
        const std::uint64_t space =
            h.drive.geometry().totalSectors() - 8;
        for (int i = 0; i < 200; ++i)
            h.submitAt(i * 4 * sim::kTicksPerMs,
                       read(i, rng.uniformInt(space)));
        h.simul.run();
        retries[v] = h.drive.stats().mediaRetries;
    }
    EXPECT_EQ(retries[0], retries[1]);
}

// --- table-driven seek curves --------------------------------------

TEST(SeekCurve, InterpolatesBetweenPoints)
{
    mech::SeekParams p;
    p.cylinders = 10000;
    p.curvePoints = {{1, 1.0}, {100, 2.0}, {1000, 5.0}};
    const mech::SeekModel m(p);
    EXPECT_DOUBLE_EQ(m.seekTimeMs(0), 0.0);
    EXPECT_DOUBLE_EQ(m.seekTimeMs(1), 1.0);
    EXPECT_DOUBLE_EQ(m.seekTimeMs(100), 2.0);
    EXPECT_DOUBLE_EQ(m.seekTimeMs(1000), 5.0);
    // Midpoint of the second segment.
    EXPECT_NEAR(m.seekTimeMs(550), 3.5, 1e-9);
}

TEST(SeekCurve, ClampsAtEnds)
{
    mech::SeekParams p;
    p.cylinders = 10000;
    p.curvePoints = {{10, 1.5}, {100, 3.0}};
    const mech::SeekModel m(p);
    EXPECT_DOUBLE_EQ(m.seekTimeMs(1), 1.5);    // below first point
    EXPECT_DOUBLE_EQ(m.seekTimeMs(5000), 3.0); // beyond last point
}

TEST(SeekCurve, MonotoneAcrossTable)
{
    mech::SeekParams p;
    p.cylinders = 50000;
    p.curvePoints = {
        {1, 0.7}, {50, 1.1}, {400, 2.0}, {5000, 4.5}, {49999, 11.0}};
    const mech::SeekModel m(p);
    double prev = 0.0;
    for (std::uint32_t d = 0; d < 50000; d += 97) {
        const double t = m.seekTimeMs(d);
        EXPECT_GE(t, prev - 1e-12);
        prev = t;
    }
}

TEST(SeekCurve, RejectsDescendingPoints)
{
    mech::SeekParams p;
    p.curvePoints = {{100, 2.0}, {50, 3.0}};
    EXPECT_DEATH(mech::SeekModel{p}, "ascend");
    mech::SeekParams q;
    q.curvePoints = {{10, 3.0}, {100, 2.0}};
    EXPECT_DEATH(mech::SeekModel{q}, "ascend");
}

TEST(SeekCurve, DriveUsesTable)
{
    // A flat 2 ms curve makes every non-zero seek cost exactly 2 ms.
    DriveSpec spec = testSpec();
    spec.seek.curvePoints = {{1, 2.0}, {100000, 2.0}};
    Harness h(spec);
    h.submitAt(0, read(1, h.drive.geometry().totalSectors() / 2));
    h.simul.run();
    EXPECT_EQ(h.completions[0].info.seekTicks, sim::msToTicks(2.0));
}

} // namespace
