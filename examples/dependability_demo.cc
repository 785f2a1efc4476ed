/**
 * @file
 * Example: a dependability timeline for an intra-disk parallel array.
 *
 * Runs a 4-member RAID-5 of 4-actuator drives under a steady load and
 * injects a cascade of faults while it serves:
 *
 *   t = 25%  an arm in member 2 is deconfigured (SMART prediction),
 *   t = 50%  a second arm in member 2 goes,
 *   t = 75%  member 1 fails outright -> degraded (reconstruction)
 *            mode.
 *
 * A windowed time series of response times shows each event as a step
 * in the trajectory rather than an outage — the layered graceful
 * degradation story of the paper's Section 8 plus classic RAID.
 *
 * Usage: dependability_demo [requests]
 */

#include <cstdlib>
#include <iostream>

#include "config/env.hh"
#include "core/run.hh"
#include "sim/rng.hh"
#include "stats/table.hh"
#include "stats/time_series.hh"

int
main(int argc, char **argv)
{
    using namespace idp;
    using stats::fmt;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    std::uint64_t requests = 80000;
    if (argc > 1 && std::atoll(argv[1]) > 0)
        requests = static_cast<std::uint64_t>(std::atoll(argv[1]));

    const double inter_ms = 4.0;
    const sim::Tick horizon = static_cast<sim::Tick>(requests) *
        sim::msToTicks(inter_ms);
    const sim::Tick window = horizon / 12;

    core::SystemConfig system;
    system.array.layout = array::Layout::Raid5;
    system.array.disks = 4;
    system.array.drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4);
    env.apply(system);

    // The completion callback makes the run serial: the fault cascade
    // below is scheduled on its one calendar.
    stats::TimeSeries series(window);
    core::Run run(
        system,
        [&series](const workload::IoRequest &req, sim::Tick done) {
            series.add(done, sim::ticksToMs(done - req.arrival));
        });
    sim::Simulator &simul = run.sim();
    array::StorageArray &arr = run.array();

    sim::Rng rng(0xDEBDEB);
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
        simul.schedule(req.arrival, [&arr, req] { arr.submit(req); });
    }

    // The fault cascade.
    simul.schedule(horizon / 4, [&arr] { arr.failMemberArm(2, 0); });
    simul.schedule(horizon / 2, [&arr] { arr.failMemberArm(2, 1); });
    simul.schedule(horizon * 3 / 4, [&arr] { arr.failDisk(1); });
    run.drain();

    stats::TextTable table(
        "Response-time trajectory (RAID-5 of SA(4) drives; arm faults "
        "at windows 3 and 6, member loss at window 9)");
    table.setHeader({"Window", "Completions", "Mean(ms)", "P90(ms)"});
    for (std::size_t w = 0; w < series.windows(); ++w) {
        const auto &s = series.window(w);
        table.addRow({std::to_string(w), std::to_string(s.count()),
                      fmt(s.mean(), 2), fmt(s.p90(), 2)});
    }
    table.print(std::cout);

    std::cout << "\nReading: arm deconfigurations barely dent the "
                 "trajectory (spare arms absorb\nthem); losing a "
                 "whole member adds a visible but bounded step (reads "
                 "fan out\nfor reconstruction); the array keeps "
                 "serving throughout.\n";
    return 0;
}
