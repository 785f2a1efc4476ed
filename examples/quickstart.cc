/**
 * @file
 * Quickstart: simulate one conventional drive and one 4-actuator
 * intra-disk parallel drive on the same random workload and compare
 * response time and power.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/synthetic.hh"

int
main()
{
    using namespace idp;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);

    // A moderate random workload: 60% reads, 20% sequential, 3 ms
    // mean inter-arrival (see the paper's Section 7.3 parameters).
    workload::SyntheticParams wl;
    wl.requests = 50000;
    wl.meanInterArrivalMs = 3.0;
    const workload::Trace trace = workload::generateSynthetic(wl);

    std::cout << "Workload: " << wl.requests << " requests, "
              << wl.meanInterArrivalMs << " ms mean inter-arrival\n\n";

    std::vector<core::RunResult> results;

    // Conventional high-capacity drive (Seagate Barracuda ES-like).
    core::SystemConfig conventional = core::makeRaid0System(
        "conventional", disk::barracudaEs750(), 1);
    env.apply(conventional);
    results.push_back(core::runTrace(trace, conventional));

    // The same drive with four independent arm assemblies.
    core::SystemConfig parallel = core::makeRaid0System(
        "4-actuator",
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4), 1);
    env.apply(parallel);
    results.push_back(core::runTrace(trace, parallel));

    core::printSummary(std::cout, "Single drive, synthetic workload",
                       results);
    core::printResponseCdf(std::cout, "Response-time CDF", results);
    core::printPowerBreakdown(std::cout, "Average power", results);

    std::cout << "The multi-actuator drive cuts rotational latency by "
              << "dispatching whichever idle arm is angularly closest\n"
              << "to each sector, at a small seek-power cost.\n";
    return 0;
}
