/**
 * @file
 * Reliability tests: analytic MTTF model invariants and the drive's
 * runtime graceful-degradation (failArm) behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "disk/disk_drive.hh"
#include "reliability/reliability.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using reliability::ReliabilityModel;
using reliability::ReliabilityParams;

ReliabilityModel
model()
{
    return ReliabilityModel{ReliabilityParams{}};
}

TEST(ReliabilityModel, SeriesMttfShrinksWithActuators)
{
    const auto m = model();
    double prev = m.seriesMttfHours(1);
    for (std::uint32_t n = 2; n <= 6; ++n) {
        const double cur = m.seriesMttfHours(n);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
}

TEST(ReliabilityModel, DegradableMttfGrowsWithActuators)
{
    const auto m = model();
    double prev = m.degradableMttfHours(1);
    for (std::uint32_t n = 2; n <= 6; ++n) {
        const double cur = m.degradableMttfHours(n);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
}

TEST(ReliabilityModel, SingleActuatorFormsAgree)
{
    // With one actuator there is nothing to degrade to: both designs
    // are the same series system.
    const auto m = model();
    EXPECT_NEAR(m.seriesMttfHours(1), m.degradableMttfHours(1), 1e-6);
}

TEST(ReliabilityModel, DegradableBoundedByBase)
{
    // Graceful degradation cannot outlive the shared spindle and
    // electronics.
    const auto m = model();
    const ReliabilityParams p;
    const double base_mttf = 1.0 /
        (1.0 / p.spindleMttfHours + 1.0 / p.electronicsMttfHours);
    for (std::uint32_t n = 1; n <= 8; ++n)
        EXPECT_LT(m.degradableMttfHours(n), base_mttf);
}

TEST(ReliabilityModel, SurvivalDecreasesInTime)
{
    const auto m = model();
    double prev = 1.0;
    for (double t = 0; t <= 5e6; t += 5e5) {
        const double s = m.survival(t, 4, true);
        EXPECT_LE(s, prev + 1e-12);
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
        prev = s;
    }
}

TEST(ReliabilityModel, DegradableSurvivalDominatesSeries)
{
    const auto m = model();
    for (double t = 1e5; t <= 4e6; t += 4e5)
        EXPECT_GE(m.survival(t, 4, true), m.survival(t, 4, false));
}

TEST(ReliabilityModel, MttfMatchesIntegratedSurvival)
{
    // MTTF = integral of the survival function.
    const auto m = model();
    for (std::uint32_t n : {1u, 2u, 4u}) {
        double integral = 0.0;
        const double dt = 2000.0;
        for (double t = 0; t < 6e7; t += dt)
            integral += m.survival(t + dt / 2, n, true) * dt;
        EXPECT_NEAR(integral, m.degradableMttfHours(n),
                    m.degradableMttfHours(n) * 0.01);
    }
}

TEST(ReliabilityModel, ExpectedAliveArmsDecays)
{
    const auto m = model();
    EXPECT_DOUBLE_EQ(m.expectedAliveArms(0.0, 4), 4.0);
    const ReliabilityParams p;
    EXPECT_NEAR(m.expectedAliveArms(p.actuatorMttfHours, 4),
                4.0 / std::exp(1.0), 1e-9);
}

// --- runtime graceful degradation ---------------------------------

using Harness = test::DriveRig;

disk::DriveSpec
sa4Spec()
{
    return disk::makeIntraDiskParallel(
        disk::enterpriseDrive(2.0, 10000, 2), 4);
}

TEST(FailArm, CountsAlive)
{
    Harness h(sa4Spec());
    EXPECT_EQ(h.drive.aliveArms(), 4u);
    h.drive.failArm(1);
    EXPECT_EQ(h.drive.aliveArms(), 3u);
    h.drive.failArm(1); // idempotent
    EXPECT_EQ(h.drive.aliveArms(), 3u);
}

TEST(FailArm, FailedArmNeverScheduled)
{
    Harness h(sa4Spec());
    h.drive.failArm(2);
    sim::Rng rng(21);
    const std::uint64_t space =
        h.drive.geometry().totalSectors() - 16;
    for (int i = 0; i < 300; ++i) {
        workload::IoRequest req;
        req.id = i;
        req.arrival = i * sim::kTicksPerMs;
        req.lba = rng.uniformInt(space);
        req.sectors = 8;
        req.isRead = true;
        h.simul.schedule(req.arrival,
                         [&h, req] { h.drive.submit(req); });
    }
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 300u);
    EXPECT_EQ(h.drive.stats().armAccesses[2], 0u);
    EXPECT_GT(h.drive.stats().armAccesses[0], 0u);
}

TEST(FailArm, MidRunFailureDrains)
{
    Harness h(sa4Spec());
    sim::Rng rng(22);
    const std::uint64_t space =
        h.drive.geometry().totalSectors() - 16;
    for (int i = 0; i < 400; ++i) {
        workload::IoRequest req;
        req.id = i;
        req.arrival = i * 2 * sim::kTicksPerMs;
        req.lba = rng.uniformInt(space);
        req.sectors = 8;
        req.isRead = true;
        h.simul.schedule(req.arrival,
                         [&h, req] { h.drive.submit(req); });
    }
    // Deconfigure three arms while the workload runs.
    h.simul.schedule(100 * sim::kTicksPerMs,
                     [&h] { h.drive.failArm(0); });
    h.simul.schedule(300 * sim::kTicksPerMs,
                     [&h] { h.drive.failArm(1); });
    h.simul.schedule(500 * sim::kTicksPerMs,
                     [&h] { h.drive.failArm(2); });
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 400u);
    EXPECT_TRUE(h.drive.idle());
    EXPECT_EQ(h.drive.aliveArms(), 1u);
}

TEST(FailArm, SingleArmDegradesRotLatency)
{
    // With three of four arms retired, the drive behaves like a
    // conventional one: mean rotational latency climbs back toward
    // half a revolution.
    double rot_ms[2];
    for (int variant = 0; variant < 2; ++variant) {
        disk::DriveSpec spec = sa4Spec();
        spec.seekScale = 0.0;
        Harness h(spec);
        if (variant == 1)
            for (std::uint32_t k = 0; k < 3; ++k)
                h.drive.failArm(k);
        sim::Rng rng(23);
        const std::uint64_t space =
            h.drive.geometry().totalSectors() - 16;
        for (int i = 0; i < 300; ++i) {
            workload::IoRequest req;
            req.id = i;
            req.arrival = i * 25 * sim::kTicksPerMs;
            req.lba = rng.uniformInt(space);
            req.sectors = 8;
            req.isRead = true;
            h.simul.schedule(req.arrival,
                             [&h, req] { h.drive.submit(req); });
        }
        h.simul.run();
        rot_ms[variant] = h.drive.stats().rotMs.mean();
    }
    EXPECT_GT(rot_ms[1], rot_ms[0] * 2.0);
}

TEST(FailArm, LastArmProtected)
{
    Harness h(sa4Spec());
    h.drive.failArm(0);
    h.drive.failArm(1);
    h.drive.failArm(2);
    EXPECT_DEATH(h.drive.failArm(3), "last healthy arm");
}

} // namespace
