/**
 * @file
 * Figure 6: average power of the intra-disk parallel designs, with
 * reduced-RPM variants.
 *
 * For each workload, prints the four-mode average power of HC-SD and
 * of SA(2)/SA(4) at 7200, 6200, 5200 and 4200 RPM — the paper's bar
 * groups, in the same "SA(n)/RPM" labeling.
 *
 * Expected shape (paper): at 7200 RPM the SA designs cost at most a
 * few extra watts (more for seek-heavy Websearch); lowering RPM cuts
 * spindle power roughly cubically, letting low-RPM SA designs undercut
 * even the conventional HC-SD.
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
    std::cout << "=== Power of intra-disk parallel designs (Figure 6) "
                 "===\nrequests per workload: "
              << requests << "\n\n";

    const std::uint32_t rpms[] = {7200, 6200, 5200, 4200};
    const std::uint32_t arm_counts[] = {2, 4};

    // Flatten all (workload, design point) simulations into one
    // parallel sweep: 4 workloads x 9 systems.
    std::vector<workload::Trace> traces;
    std::vector<exec::SimPoint> points;
    std::size_t systems_per_workload = 0;
    for (Commercial kind : workload::allCommercial()) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        traces.push_back(workload::generateCommercial(wp));
    }
    {
        std::size_t t = 0;
        for (Commercial kind : workload::allCommercial()) {
            const workload::Trace &trace = traces[t++];
            std::vector<core::SystemConfig> configs;
            configs.push_back(core::makeHcsdSystem(kind));
            for (std::uint32_t rpm : rpms) {
                for (std::uint32_t arms : arm_counts) {
                    core::SystemConfig config =
                        core::makeSaSystem(kind, arms, rpm);
                    // Label as in the paper: SA(n)/RPM.
                    config.name = "SA(" + std::to_string(arms) +
                        ")/" + std::to_string(rpm);
                    configs.push_back(config);
                }
            }
            systems_per_workload = configs.size();
            for (auto &config : configs)
                points.push_back({&trace, config});
        }
    }
    for (exec::SimPoint &point : points)
        env.apply(point.config);
    const std::vector<core::RunResult> runs =
        exec::runSimPoints(points, env.threads);

    std::size_t next = 0;
    for (Commercial kind : workload::allCommercial()) {
        const std::vector<core::RunResult> rows(
            runs.begin() + next,
            runs.begin() + next + systems_per_workload);
        next += systems_per_workload;
        core::printPowerBreakdown(
            std::cout,
            "Figure 6 (" + workload::commercialName(kind) +
                "): average power by mode",
            rows);
        core::printSummary(std::cout,
                           "Performance at each design point",
                           rows);
    }

    std::cout << "Paper check: SA designs at 7200 RPM stay within a "
                 "few watts of HC-SD;\nreduced-RPM SA designs drop "
                 "below the conventional drive's power.\n";
    return 0;
}
