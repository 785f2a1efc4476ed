/**
 * @file
 * Simulator-vs-theory validation: drive the simulator into corners
 * with known closed forms and check the measured statistics against
 * src/analytic. Each law is asserted once, here:
 *
 *  - M/M/1 mean wait on the bare event kernel (kernel, RNG and the
 *    formula itself);
 *  - M/D/1 and M/G/1 (Pollaczek-Khinchine) mean waits through the
 *    full stack: trace -> StorageArray -> DiskDrive -> RunResult;
 *  - mean rotational wait T / (2k) for k evenly spread heads (the
 *    paper's Figure 4/5 mechanism);
 *  - T / (n + 1) for n arms at independently random azimuths, over
 *    an ensemble of placements (arbitrary arm geometry, which the
 *    evenly spaced law cannot exercise);
 *  - the C/3 mean distance between two random cylinders;
 *  - busy fraction equal to the offered utilization.
 *
 * All runs use fixed seeds: tolerances cover the fixed sampling
 * realization, so a failure means the model drifted.
 */

#include <gtest/gtest.h>

#include <functional>

#include "analytic/queueing.hh"
#include "core/experiment.hh"
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

/** SA(@p arms) with FCFS dispatch and no seek time. */
DriveSpec
zeroSeekArms(std::uint32_t arms)
{
    DriveSpec spec = disk::makeIntraDiskParallel(fcfsSpec(), arms);
    spec.sched.policy = sched::Policy::Fcfs;
    spec.seekScale = 0.0;
    return spec;
}

using Harness = test::DriveRig;

/** 8-sector writes at uniform offsets within track 0, Poisson
 *  arrivals with mean gap @p gap_ms. Writes bypass the cache
 *  (write-through), so every request reaches the media. */
workload::Trace
trackZeroWrites(std::uint64_t seed, std::uint64_t n, double gap_ms,
                std::uint32_t spt)
{
    sim::Rng rng(seed);
    workload::Trace trace;
    trace.reserve(n);
    double clock_ms = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        clock_ms += rng.exponential(gap_ms);
        IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.lba = rng.uniformInt(static_cast<std::uint64_t>(spt - 8));
        req.sectors = 8;
        req.isRead = false;
        trace.push_back(req);
    }
    return trace;
}

/** Service time (seek + rotation + transfer) of every request of
 *  @p trace replayed on a lone drive, ms. */
stats::SampleSet
replayServicesMs(const DriveSpec &spec, const workload::Trace &trace)
{
    Harness h(spec);
    for (const IoRequest &req : trace)
        h.submitAt(req.arrival, req);
    h.simul.run();
    stats::SampleSet out;
    for (const test::Completion &c : h.completions)
        out.add(sim::ticksToMs(c.info.seekTicks + c.info.rotTicks +
                               c.info.xferTicks));
    return out;
}

/** Mean rotational wait of @p n random 8-sector writes, each 25 ms
 *  apart so every access finds the drive idle: pure positional wait,
 *  no queueing. */
double
idleRotMs(const DriveSpec &spec, sim::Rng &rng, std::uint64_t n)
{
    Harness h(spec);
    const std::uint64_t space = h.drive.geometry().totalSectors() - 8;
    for (std::uint64_t i = 0; i < n; ++i) {
        IoRequest req;
        req.id = i;
        req.lba = rng.uniformInt(space);
        req.sectors = 8;
        req.isRead = false;
        h.submitAt(static_cast<sim::Tick>(i) * 25 * sim::kTicksPerMs,
                   req);
    }
    h.simul.run();
    return h.drive.stats().rotMs.mean();
}

TEST(Validation, Mm1KernelWait)
{
    // A toy exponential server fed by a Poisson stream, no disk at
    // all: validates the kernel's event ordering, the RNG's
    // exponential sampler and the closed form.
    const double service_ms = 1.0;
    const double rho = 0.7;
    const double lambda = rho / service_ms;
    const std::uint64_t n = 200000;

    sim::Simulator simul;
    sim::Rng rng(0x0A11CE5EEDULL);
    stats::SampleSet waits(1u << 16);

    // Pre-draw arrivals so the server's service draws do not
    // interleave with the arrival stream.
    std::vector<sim::Tick> arrivals;
    arrivals.reserve(n);
    double clock_ms = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        clock_ms += rng.exponential(1.0 / lambda);
        arrivals.push_back(sim::msToTicks(clock_ms));
    }

    std::vector<sim::Tick> queue;
    bool busy = false;
    std::function<void()> finish;
    auto start = [&](sim::Tick arrival) {
        busy = true;
        const sim::Tick now = simul.now();
        waits.add(sim::ticksToMs(now - arrival));
        const sim::Tick svc =
            sim::msToTicks(rng.exponential(service_ms));
        simul.schedule(now + svc, [&finish] { finish(); });
    };
    finish = [&] {
        busy = false;
        if (!queue.empty()) {
            const sim::Tick head = queue.front();
            queue.erase(queue.begin());
            start(head);
        }
    };
    for (const sim::Tick at : arrivals) {
        simul.schedule(at, [&, at] {
            if (busy)
                queue.push_back(at);
            else
                start(at);
        });
    }
    simul.run();

    const double wq_theory = analytic::mm1MeanWait(lambda, service_ms);
    EXPECT_NEAR(waits.mean(), wq_theory, wq_theory * 0.05);
}

TEST(Validation, Md1QueueWait)
{
    // Zero seek + zero rotation + fixed-size writes on one track:
    // a deterministic server fed by a Poisson stream -> M/D/1.
    DriveSpec spec = fcfsSpec();
    spec.seekScale = 0.0;
    spec.rotScale = 0.0;
    const auto g = geom::DiskGeometry::build(spec.geometry);
    const std::uint32_t spt = g.sectorsPerTrack(0);
    const double period_ms = 60000.0 / spec.rpm;
    const double service_ms =
        8.0 / spt * period_ms + spec.controllerOverheadMs;

    const double rho = 0.7;
    const double lambda = rho / service_ms; // per ms
    const workload::Trace trace =
        trackZeroWrites(1041, 150000, 1.0 / lambda, spt);

    // The premise: the measured service time is the constant.
    const stats::SampleSet services = replayServicesMs(spec, trace);
    EXPECT_NEAR(services.mean(), service_ms, service_ms * 0.02);
    EXPECT_LT(services.stddev(), service_ms * 0.05);

    const core::RunResult run =
        core::runTrace(trace, core::makeRaid0System("md1", spec, 1));
    const double wq_theory = analytic::md1MeanWait(lambda, service_ms);
    EXPECT_NEAR(run.meanResponseMs - service_ms, wq_theory,
                wq_theory * 0.05);
}

TEST(Validation, Mg1RotationalServer)
{
    // Zero seek + uniform rotational wait + constant transfer:
    // S = U(0, T) + c, Poisson arrivals -> Pollaczek-Khinchine.
    DriveSpec spec = fcfsSpec();
    spec.seekScale = 0.0;
    const auto g = geom::DiskGeometry::build(spec.geometry);
    const std::uint32_t spt = g.sectorsPerTrack(0);
    const double period_ms = 60000.0 / spec.rpm;
    const double c = 8.0 / spt * period_ms + spec.controllerOverheadMs;
    const auto moments =
        analytic::uniformPlusConstantMoments(period_ms, c);

    const double rho = 0.6;
    const double lambda = rho / moments.mean;
    const workload::Trace trace =
        trackZeroWrites(1043, 150000, 1.0 / lambda, spt);

    EXPECT_NEAR(replayServicesMs(spec, trace).mean(), moments.mean,
                moments.mean * 0.03);

    const core::RunResult run =
        core::runTrace(trace, core::makeRaid0System("mg1", spec, 1));
    const double wq_theory =
        analytic::mg1MeanWait(lambda, moments.mean, moments.second);
    EXPECT_NEAR(run.meanResponseMs - moments.mean, wq_theory,
                wq_theory * 0.05);
}

TEST(Validation, RotLatencyMatchesHeadCountLaw)
{
    // Mean rotational wait = T / (2k) for k qualifying heads
    // (arms x heads-per-arm, evenly spread).
    for (const auto &[arms, heads] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 1},
          {2, 1},
          {3, 1},
          {4, 1},
          {1, 2},
          {2, 2}}) {
        DriveSpec spec = zeroSeekArms(arms);
        spec.dash.headsPerArm = heads;
        sim::Rng rng(2000 + arms + 10 * (heads - 1));
        const double expected = analytic::expectedRotLatencyMs(
            spec.rpm, arms * heads);
        EXPECT_NEAR(idleRotMs(spec, rng, 6000), expected,
                    expected * 0.03)
            << "arms=" << arms << " heads=" << heads;
    }
}

TEST(Validation, RotLatencyOverRandomPlacementsIsMinUniform)
{
    // n arms at independently random chassis azimuths. One placement
    // has mean forward wait T x (sum of squared azimuth gaps) / 2,
    // which only averages to T / (n + 1) across placements, so run an
    // ensemble of randomized drives and compare the ensemble mean.
    // The across-placement relative SD of the per-placement mean is
    // ~26% for n in {2, 3, 4} (Dirichlet gap algebra), so 2000
    // placements put the ensemble standard error near 0.6%: the 3%
    // tolerance is ~5 sigma. n = 1 has no placement variance.
    for (std::uint32_t arms = 1; arms <= 4; ++arms) {
        DriveSpec spec = zeroSeekArms(arms);
        const std::uint64_t placements = arms == 1 ? 20 : 2000;
        sim::Rng rng(3000 + arms);
        double sum_of_means = 0.0;
        for (std::uint64_t k = 0; k < placements; ++k) {
            spec.armAzimuths.clear();
            for (std::uint32_t a = 0; a < arms; ++a)
                spec.armAzimuths.push_back(rng.uniform());
            sum_of_means += idleRotMs(spec, rng, 40);
        }
        const double expected =
            analytic::expectedMinUniform(60000.0 / spec.rpm, arms);
        EXPECT_NEAR(sum_of_means / static_cast<double>(placements),
                    expected, expected * 0.03)
            << "arms=" << arms;
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
    for (const IoRequest &req :
         trackZeroWrites(4001, 40000, service_ms / rho, spt))
        h.submitAt(req.arrival, req);
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
