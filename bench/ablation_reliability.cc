/**
 * @file
 * Section 8: reliability of intra-disk parallel drives.
 *
 * Two halves:
 *  1. Analytic: MTTF of an n-actuator drive if every component is
 *     fatal (series) versus with SMART-driven graceful degradation
 *     (deconfigure a failing arm, keep serving). The paper's point:
 *     without degradation MTTF *drops* with each actuator; with it,
 *     the actuator subsystem effectively never limits drive life.
 *  2. Simulated: a 4-actuator drive running a steady workload while
 *     arms are deconfigured one by one at the quarter points of the
 *     run; per-phase p90 response time shows performance degrading
 *     gracefully toward the single-arm level instead of the drive
 *     failing outright.
 */

#include <iostream>

#include "config/env.hh"
#include "core/run.hh"
#include "reliability/reliability.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"
#include "stats/table.hh"

int
main()
{
    using namespace idp;
    using stats::fmt;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);

    // --- analytic half -------------------------------------------
    reliability::ReliabilityModel model{reliability::ReliabilityParams{}};
    stats::TextTable mttf("Section 8: drive MTTF vs actuator count "
                          "(hours)");
    mttf.setHeader({"Actuators", "Series (no degradation)",
                    "Graceful degradation", "5yr survival (degr.)"});
    for (std::uint32_t n = 1; n <= 4; ++n) {
        mttf.addRow({std::to_string(n),
                     fmt(model.seriesMttfHours(n), 0),
                     fmt(model.degradableMttfHours(n), 0),
                     fmt(model.survival(5 * 8766.0, n, true), 4)});
    }
    mttf.print(std::cout);
    std::cout << '\n';

    // --- simulated half ------------------------------------------
    // One drive as a one-member array, so the run is set up by
    // core::Run like every other: it runs under the invariant checker
    // (IDP_VERIFY) and takes the drive and array knobs. A single-drive
    // array is bit-identical to a standalone drive.
    const std::uint64_t requests = env.benchRequests(80000);
    core::SystemConfig system = core::makeRaid0System(
        "sa4", disk::makeIntraDiskParallel(disk::barracudaEs750(), 4),
        1);
    env.apply(system);

    // Four phases; p90 per phase, split by completion time.
    const double inter_ms = 8.0;
    const sim::Tick phase_ticks = static_cast<sim::Tick>(
        requests / 4 * sim::msToTicks(inter_ms));
    std::vector<stats::SampleSet> phases(4);

    core::Run run(system,
                  [&](const workload::IoRequest &req, sim::Tick done) {
                      std::size_t phase = static_cast<std::size_t>(
                          done / phase_ticks);
                      if (phase > 3)
                          phase = 3;
                      phases[phase].add(
                          sim::ticksToMs(done - req.arrival));
                  });
    array::StorageArray &arr = run.array();

    sim::Rng rng(0x5EC8);
    const std::uint64_t space = arr.logicalSectors() - 64;
    double clock_ms = 0.0;
    for (std::uint64_t i = 0; i < requests; ++i) {
        clock_ms += rng.exponential(inter_ms);
        workload::IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.lba = rng.uniformInt(space);
        req.sectors = 16;
        req.isRead = rng.chance(0.7);
        run.sim().schedule(req.arrival,
                           [&arr, req] { arr.submit(req); });
    }
    // Deconfigure one arm at each phase boundary.
    for (std::uint32_t k = 0; k < 3; ++k)
        run.sim().schedule(phase_ticks * (k + 1),
                           [&arr, k] { arr.failMemberArm(0, k); });
    run.drain();

    stats::TextTable sim_table(
        "Graceful degradation under arm failures (SA(4), one arm "
        "deconfigured per phase)");
    sim_table.setHeader({"Phase", "Healthy arms", "p90 response (ms)",
                         "mean (ms)"});
    for (std::size_t p = 0; p < 4; ++p) {
        sim_table.addRow({std::to_string(p + 1),
                          std::to_string(4 - p),
                          fmt(phases[p].p90(), 2),
                          fmt(phases[p].mean(), 2)});
    }
    sim_table.print(std::cout);

    std::cout << "\nReading: series MTTF shrinks with every actuator; "
                 "graceful degradation keeps\nthe multi-actuator "
                 "drive's availability at conventional levels while "
                 "performance\nsteps down smoothly as arms retire.\n";
    return 0;
}
