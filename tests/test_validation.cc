/**
 * @file
 * Simulator-vs-theory validation: drive the disk model into corners
 * with known closed forms (M/D/1, M/G/1, uniform rotational waits,
 * one-third-stroke seeks) and check the measured statistics against
 * src/analytic. All runs use fixed seeds; tolerances cover sampling
 * noise only.
 */

#include <gtest/gtest.h>

#include "analytic/queueing.hh"
#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"

namespace {

using namespace idp;
using disk::DriveSpec;
using workload::IoRequest;

DriveSpec
fcfsSpec()
{
    DriveSpec spec = disk::enterpriseDrive(2.0, 10000, 2);
    spec.sched.policy = sched::Policy::Fcfs;
    return spec;
}

using Harness = test::DriveRig;

/** Response time of every completion, ms. */
stats::SampleSet
responsesMs(const Harness &h)
{
    stats::SampleSet out;
    for (const test::Completion &c : h.completions)
        out.add(sim::ticksToMs(c.done - c.req.arrival));
    return out;
}

/** Service time (seek + rotation + transfer) of every completion, ms. */
stats::SampleSet
servicesMs(const Harness &h)
{
    stats::SampleSet out;
    for (const test::Completion &c : h.completions)
        out.add(sim::ticksToMs(c.info.seekTicks + c.info.rotTicks +
                               c.info.xferTicks));
    return out;
}

TEST(Validation, Md1QueueWait)
{
    // Zero seek + zero rotation + fixed-size writes on one track:
    // a deterministic server fed by a Poisson stream -> M/D/1.
    DriveSpec spec = fcfsSpec();
    spec.seekScale = 0.0;
    spec.rotScale = 0.0;
    Harness h(spec);

    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    const double period_ms = h.drive.spindle().periodMs();
    const double xfer_ms = 8.0 / spt * period_ms;
    const double service_ms = xfer_ms + spec.controllerOverheadMs;

    const double rho = 0.7;
    const double lambda = rho / service_ms; // per ms
    sim::Rng rng(41);
    double clock_ms = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        clock_ms += rng.exponential(1.0 / lambda);
        IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.lba = rng.uniformInt(static_cast<std::uint64_t>(spt - 8));
        req.sectors = 8;
        req.isRead = false; // writes bypass the cache (write-through)
        h.simul.schedule(req.arrival,
                         [&h, req] { h.drive.submit(req); });
    }
    h.simul.run();
    const stats::SampleSet services = servicesMs(h);

    // Measured service time should be the deterministic constant.
    EXPECT_NEAR(services.mean(), service_ms, service_ms * 0.02);
    EXPECT_LT(services.stddev(), service_ms * 0.05);

    const double wq_measured = responsesMs(h).mean() - services.mean();
    const double wq_theory = analytic::md1MeanWait(lambda, service_ms);
    EXPECT_NEAR(wq_measured, wq_theory, wq_theory * 0.10);
}

TEST(Validation, Mg1RotationalServer)
{
    // Zero seek + uniform rotational wait + constant transfer:
    // S = U(0, T) + c, Poisson arrivals -> Pollaczek-Khinchine.
    DriveSpec spec = fcfsSpec();
    spec.seekScale = 0.0;
    Harness h(spec);

    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    const double period_ms = h.drive.spindle().periodMs();
    const double xfer_ms = 8.0 / spt * period_ms;
    const double c = xfer_ms + spec.controllerOverheadMs;
    const auto moments =
        analytic::uniformPlusConstantMoments(period_ms, c);

    const double rho = 0.6;
    const double lambda = rho / moments.mean;
    sim::Rng rng(43);
    double clock_ms = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        clock_ms += rng.exponential(1.0 / lambda);
        IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.lba = rng.uniformInt(static_cast<std::uint64_t>(spt - 8));
        req.sectors = 8;
        req.isRead = false;
        h.simul.schedule(req.arrival,
                         [&h, req] { h.drive.submit(req); });
    }
    h.simul.run();
    const stats::SampleSet services = servicesMs(h);

    EXPECT_NEAR(services.mean(), moments.mean, moments.mean * 0.03);
    const double wq_measured = responsesMs(h).mean() - services.mean();
    const double wq_theory =
        analytic::mg1MeanWait(lambda, moments.mean, moments.second);
    EXPECT_NEAR(wq_measured, wq_theory, wq_theory * 0.12);
}

TEST(Validation, RotLatencyMatchesHeadCountLaw)
{
    // Widely spaced random accesses: mean rotational wait = T / (2k)
    // for k qualifying heads (arms x heads-per-arm, evenly spread).
    for (const auto &[arms, heads] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 1},
          {2, 1},
          {4, 1},
          {1, 2},
          {2, 2}}) {
        DriveSpec spec = disk::makeIntraDiskParallel(fcfsSpec(), arms);
        spec.dash.headsPerArm = heads;
        spec.seekScale = 0.0;
        Harness h(spec);
        sim::Rng rng(47 + arms * 10 + heads);
        const std::uint64_t space =
            h.drive.geometry().totalSectors() - 8;
        for (int i = 0; i < 600; ++i) {
            IoRequest req;
            req.id = i;
            req.arrival = static_cast<sim::Tick>(i) * 25 *
                sim::kTicksPerMs;
            req.lba = rng.uniformInt(space);
            req.sectors = 8;
            req.isRead = false;
            h.simul.schedule(req.arrival,
                             [&h, req] { h.drive.submit(req); });
        }
        h.simul.run();
        const double expected = analytic::expectedRotLatencyMs(
            spec.rpm, arms * heads);
        EXPECT_NEAR(h.drive.stats().rotMs.mean(), expected,
                    expected * 0.12)
            << "arms=" << arms << " heads=" << heads;
    }
}

TEST(Validation, RandomSeekDistanceOneThirdStroke)
{
    // The geometry's LBA mapping spreads random addresses so the mean
    // cylinder distance of two random blocks is ~C/3.
    const auto g = geom::DiskGeometry::build(geom::GeometryParams{});
    sim::Rng rng(53);
    double sum = 0.0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const auto a = g.lbaToChs(rng.uniformInt(g.totalSectors()));
        const auto b = g.lbaToChs(rng.uniformInt(g.totalSectors()));
        sum += a.cylinder > b.cylinder
            ? a.cylinder - b.cylinder
            : b.cylinder - a.cylinder;
    }
    const double expected =
        analytic::expectedRandomSeekDistance(g.cylinders());
    EXPECT_NEAR(sum / n, expected, expected * 0.03);
}

TEST(Validation, UtilizationMatchesBusyFraction)
{
    // The mode tracker's non-idle wall fraction must equal the
    // offered utilization in a stable run.
    DriveSpec spec = fcfsSpec();
    spec.seekScale = 0.0;
    spec.rotScale = 0.0;
    Harness h(spec);
    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    const double service_ms = 8.0 / spt *
            h.drive.spindle().periodMs() +
        spec.controllerOverheadMs;
    const double rho = 0.5;
    sim::Rng rng(59);
    double clock_ms = 0.0;
    for (int i = 0; i < 20000; ++i) {
        clock_ms += rng.exponential(service_ms / rho);
        IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.lba = rng.uniformInt(static_cast<std::uint64_t>(spt - 8));
        req.sectors = 8;
        req.isRead = false;
        h.simul.schedule(req.arrival,
                         [&h, req] { h.drive.submit(req); });
    }
    h.simul.run();
    const auto times = h.drive.finishModeTimes();
    const double busy = 1.0 -
        static_cast<double>(times.wall[static_cast<std::size_t>(
            stats::DiskMode::Idle)]) /
            static_cast<double>(times.total);
    EXPECT_NEAR(busy, rho, 0.03);
}

TEST(AnalyticFormulas, KnownValues)
{
    EXPECT_DOUBLE_EQ(analytic::utilization(0.5, 1.0), 0.5);
    // M/M/1 at rho = 0.5: Wq = 0.5 * 1 / 0.5 = 1.
    EXPECT_DOUBLE_EQ(analytic::mm1MeanWait(0.5, 1.0), 1.0);
    // M/D/1 has half the M/M/1 wait.
    EXPECT_DOUBLE_EQ(analytic::md1MeanWait(0.5, 1.0),
                     analytic::mm1MeanWait(0.5, 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(analytic::expectedMinUniform(10.0, 4), 2.0);
    EXPECT_NEAR(analytic::expectedRotLatencyMs(7200, 1), 4.1667,
                1e-3);
    EXPECT_NEAR(analytic::expectedRotLatencyMs(7200, 4), 1.0417,
                1e-3);
    EXPECT_DOUBLE_EQ(analytic::expectedRandomSeekDistance(90000),
                     30000.0);
    const auto m = analytic::uniformPlusConstantMoments(6.0, 1.0);
    EXPECT_DOUBLE_EQ(m.mean, 4.0);
    EXPECT_DOUBLE_EQ(m.second, 12.0 + 6.0 + 1.0);
}

TEST(AnalyticFormulas, UnstableQueuePanics)
{
    EXPECT_DEATH(analytic::mm1MeanWait(2.0, 1.0), "unstable");
    EXPECT_DEATH(analytic::mg1MeanWait(1.0, 1.0, 1.0), "unstable");
}

} // namespace
