/**
 * @file
 * Ablation: arm-assembly angular placement.
 *
 * The paper's Section 4 notes that placement of the assemblies within
 * the drive is a design variable, and Section 8 argues for diagonal
 * (opposed) placement for vibration reasons. This bench shows the
 * *performance* half of that argument: evenly spaced azimuths are
 * what buys the rotational-latency reduction; clustering every arm at
 * the same azimuth keeps the seek benefit but forfeits almost all of
 * the rotational one.
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "exec/sim_sweep.hh"

int
main()
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(200000);
    std::cout << "=== Ablation: arm angular placement (TPC-C, SA(4)) "
                 "===\nrequests: "
              << requests << "\n\n";

    workload::CommercialParams wp;
    wp.kind = Commercial::TpcC;
    wp.requests = requests;
    const auto trace = workload::generateCommercial(wp);

    core::SystemConfig even = core::makeSaSystem(Commercial::TpcC, 4);
    even.name = "even (0/90/180/270)";

    core::SystemConfig paired = core::makeSaSystem(Commercial::TpcC, 4);
    paired.array.drive.armAzimuths = {0.0, 0.0, 0.5, 0.5};
    paired.name = "opposed pairs (0/0/180/180)";

    core::SystemConfig clustered =
        core::makeSaSystem(Commercial::TpcC, 4);
    clustered.array.drive.armAzimuths = {0.0, 0.0, 0.0, 0.0};
    clustered.name = "clustered (all at 0)";

    std::vector<core::SystemConfig> configs = {even, paired, clustered};
    for (core::SystemConfig &config : configs)
        env.apply(config);
    const std::vector<core::RunResult> rows =
        exec::runSystems(trace, configs, env.threads);

    core::printSummary(std::cout, "Placement of 4 arm assemblies",
                       rows);
    core::printRotPdf(std::cout, "Rotational-latency PDF", rows);

    std::cout << "Reading: rotational latency (and with it response "
                 "time) degrades as arms\nshare azimuths; clustered "
                 "placement keeps only the seek benefit.\n";
    return 0;
}
