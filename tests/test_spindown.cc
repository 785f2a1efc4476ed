/**
 * @file
 * Spin-down power management tests: idle timeout, spin-up latency
 * cliff, standby energy accounting, interaction with write-back.
 */

#include <gtest/gtest.h>

#include "disk/disk_drive.hh"
#include "power/power_model.hh"
#include "rig.hh"
#include "sim/event_queue.hh"

namespace {

using namespace idp;
using disk::DriveSpec;
using workload::IoRequest;

DriveSpec
spec(double spin_down_ms, double spin_up_ms = 1000.0)
{
    DriveSpec s = disk::enterpriseDrive(1.0, 10000, 2);
    s.spinDownAfterMs = spin_down_ms;
    s.spinUpMs = spin_up_ms;
    return s;
}

using Harness = test::DriveRig;

/** An 8-sector access at @p lba arriving at @p when; its id counts the
 *  completions recorded so far. */
void
accessAt(Harness &h, sim::Tick when, geom::Lba lba, bool is_read = true)
{
    IoRequest r;
    r.id = h.completions.size();
    r.lba = lba;
    r.sectors = 8;
    r.isRead = is_read;
    h.submitAt(when, r);
}

TEST(SpinDown, DisabledByDefault)
{
    Harness h(disk::enterpriseDrive(1.0, 10000, 2));
    accessAt(h, 0, 1000);
    h.simul.run();
    // Long after the request: still spinning.
    EXPECT_FALSE(h.drive.spunDown());
    EXPECT_EQ(h.drive.stats().spinDowns, 0u);
}

TEST(SpinDown, SpinsDownAfterIdleTimeout)
{
    Harness h(spec(50.0));
    accessAt(h, 0, 1000, false);
    h.simul.schedule(sim::msToTicks(500.0), [] {}); // extend horizon
    h.simul.run();
    EXPECT_TRUE(h.drive.spunDown());
    EXPECT_EQ(h.drive.stats().spinDowns, 1u);
}

TEST(SpinDown, ArrivalPaysSpinUp)
{
    Harness h(spec(50.0, 1000.0));
    accessAt(h, 0, 1000, false);
    // Arrives long after spin-down: must wait out the 1 s spin-up.
    accessAt(h, sim::msToTicks(300.0),
             h.drive.geometry().totalSectors() / 2, false);
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 2u);
    const double resp_ms =
        sim::ticksToMs(h.completions[1].done) - 300.0;
    EXPECT_GT(resp_ms, 1000.0);
    EXPECT_LT(resp_ms, 1100.0);
    EXPECT_EQ(h.drive.stats().spinUps, 1u);
    // After the last completion the idle timer legitimately fires
    // again, so the drive ends the run spun down a second time.
    EXPECT_EQ(h.drive.stats().spinDowns, 2u);
}

TEST(SpinDown, BusyDriveNeverSpinsDown)
{
    Harness h(spec(50.0));
    // Steady 20 ms arrivals: the 50 ms idle timer never expires.
    for (int i = 0; i < 50; ++i)
        accessAt(h, static_cast<sim::Tick>(i) * 20 * sim::kTicksPerMs,
                 1000 + 1024 * i, false);
    h.simul.run();
    // Only the trailing post-workload timeout may fire; no request
    // ever paid a spin-up.
    EXPECT_LE(h.drive.stats().spinDowns, 1u);
    EXPECT_EQ(h.drive.stats().spinUps, 0u);
}

TEST(SpinDown, StandbyCutsEnergy)
{
    // Identical idle horizon, with and without spin-down: standby
    // must pay only electronics, not the spindle.
    double energy[2];
    for (int v = 0; v < 2; ++v) {
        Harness h(v == 0 ? disk::enterpriseDrive(1.0, 10000, 2)
                         : spec(10.0));
        accessAt(h, 0, 1000, false);
        h.simul.schedule(sim::secondsToTicks(10.0), [] {});
        h.simul.run();
        const power::PowerModel model(h.drive.spec().power);
        energy[v] =
            model.integrate(h.drive.finishModeTimes()).totalEnergyJ;
    }
    // ~10 s at idleW vs ~10 s at electronics-only.
    EXPECT_LT(energy[1], energy[0] * 0.5);
}

TEST(SpinDown, CacheHitsServedWhileSpunDown)
{
    Harness h(spec(50.0));
    accessAt(h, 0, 1000, true); // warms cache
    accessAt(h, sim::msToTicks(400.0), 1000, true); // hit
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 2u);
    // The hit neither spun the drive up nor waited for it.
    EXPECT_EQ(h.drive.stats().spinUps, 0u);
    EXPECT_TRUE(h.drive.spunDown());
    EXPECT_LT(sim::ticksToMs(h.completions[1].done) - 400.0, 1.0);
}

TEST(SpinDown, WriteBackDestageSpinsUp)
{
    DriveSpec s = spec(50.0, 200.0);
    s.cache.writeBack = true;
    Harness h(s);
    accessAt(h, 0, 4096, false); // absorbed by the cache
    h.simul.schedule(sim::secondsToTicks(5.0), [] {});
    h.simul.run();
    // The absorbed write was eventually destaged (drive had to be or
    // stay spun up for it) and the drive drained.
    EXPECT_GT(h.drive.stats().destages, 0u);
    EXPECT_EQ(h.drive.diskCache().dirtyCount(), 0u);
    EXPECT_TRUE(h.drive.idle());
}

// ---------------------------------------------------------------
// Spin-down as a *transition* (spec.spinDownMs > 0): the stop itself
// takes time, during which the drive serves nothing. A request that
// arrives mid-transition waits out the remaining transition AND a
// full spin-up — it is never priced at the old speed or served
// half-stopped.
// ---------------------------------------------------------------

TEST(SpinDownTransition, ArrivalMidTransitionWaitsRemainderPlusSpinUp)
{
    DriveSpec s = spec(50.0, 1000.0);
    s.spinDownMs = 500.0;
    Harness h(s);
    accessAt(h, 0, 1000, false);
    // First write completes within ~100 ms; the idle timer fires
    // 50 ms later; the stop transition runs for 500 ms after that.
    // An arrival at t = 300 ms lands inside the transition, so it
    // must wait transition-end + the full 1 s spin-up.
    accessAt(h, sim::msToTicks(300.0),
             h.drive.geometry().totalSectors() / 2, false);
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 2u);
    const double resp_ms = sim::ticksToMs(h.completions[1].done) - 300.0;
    // Remaining transition (>= 250 ms) + spin-up (1000 ms), bounded
    // above by transition end + spin-up + generous service slack.
    EXPECT_GT(resp_ms, 1250.0);
    EXPECT_LT(resp_ms, 1450.0);
    // The arrival did not abort the stop: the transition completed
    // (counted) and exactly one spin-up followed.
    EXPECT_GE(h.drive.stats().spinDowns, 1u);
    EXPECT_EQ(h.drive.stats().spinUps, 1u);
}

TEST(SpinDownTransition, TransitionStateIsObservable)
{
    DriveSpec s = spec(50.0, 1000.0);
    s.spinDownMs = 500.0;
    Harness h(s);
    accessAt(h, 0, 1000, false);
    bool saw_transition = false;
    bool saw_standby = false;
    // Probe well inside the transition and well after it.
    h.simul.schedule(sim::msToTicks(300.0), [&] {
        saw_transition =
            h.drive.spinningDown() && !h.drive.spunDown();
    });
    h.simul.schedule(sim::msToTicks(900.0), [&] {
        saw_standby =
            h.drive.spunDown() && !h.drive.spinningDown();
    });
    h.simul.run();
    EXPECT_TRUE(saw_transition);
    EXPECT_TRUE(saw_standby);
}

TEST(SpinDownTransition, StandbyBeginsOnlyAfterTransitionEnds)
{
    // Same scenario with instant vs 500 ms stop: the transition time
    // is billed as spinning (idle), not standby, so the instant-stop
    // variant banks strictly more standby time.
    sim::Tick standby[2];
    for (int v = 0; v < 2; ++v) {
        DriveSpec s = spec(50.0, 1000.0);
        s.spinDownMs = v == 0 ? 0.0 : 500.0;
        Harness h(s);
        accessAt(h, 0, 1000, false);
        h.simul.schedule(sim::secondsToTicks(5.0), [] {});
        h.simul.run();
        standby[v] = h.drive.finishModeTimes().standbyTicks;
    }
    EXPECT_GT(standby[0], standby[1]);
    // The gap is the transition length, to within timer slack.
    const double gap_ms =
        sim::ticksToMs(standby[0] - standby[1]);
    EXPECT_NEAR(gap_ms, 500.0, 50.0);
}

TEST(SpinDown, RepeatedCycles)
{
    Harness h(spec(20.0, 100.0));
    for (int i = 0; i < 5; ++i)
        accessAt(h, sim::secondsToTicks(1.0 + i), 1000 + 4096 * i,
                 false);
    h.simul.schedule(sim::secondsToTicks(10.0), [] {});
    h.simul.run();
    EXPECT_GE(h.drive.stats().spinDowns, 5u);
    EXPECT_GE(h.drive.stats().spinUps, 4u);
    EXPECT_EQ(h.completions.size(), 5u);
}

} // namespace
