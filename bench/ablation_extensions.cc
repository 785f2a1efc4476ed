/**
 * @file
 * Ablation (technical-report Section): relaxing the two HC-SD-SA(n)
 * service constraints.
 *
 * The paper's base design allows only one arm assembly in motion and
 * one head transferring at a time; the technical report evaluates two
 * extensions — multiple arms in motion (MA) and multiple concurrent
 * data channels (MC) — and finds they "provide little benefit". This
 * bench reproduces that comparison on all four workloads with a
 * 4-actuator drive: SA(4) vs +MA vs +MC vs +both.
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
    std::cout << "=== Ablation: multi-motion / multi-channel "
                 "extensions ===\nrequests per workload: "
              << requests << "\n\n";

    // 4 workloads x 4 constraint variants, one flat parallel sweep.
    std::vector<workload::Trace> traces;
    for (Commercial kind : workload::allCommercial()) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        traces.push_back(workload::generateCommercial(wp));
    }
    std::vector<exec::SimPoint> points;
    {
        std::size_t t = 0;
        for (Commercial kind : workload::allCommercial()) {
            const workload::Trace &trace = traces[t++];

            core::SystemConfig base = core::makeSaSystem(kind, 4);
            base.name = "SA(4) base";
            points.push_back({&trace, base});

            core::SystemConfig ma = core::makeSaSystem(kind, 4);
            ma.array.drive.maxConcurrentSeeks = 4;
            ma.name = "SA(4)+MA";
            points.push_back({&trace, ma});

            core::SystemConfig mc = core::makeSaSystem(kind, 4);
            mc.array.drive.maxConcurrentTransfers = 4;
            mc.name = "SA(4)+MC";
            points.push_back({&trace, mc});

            core::SystemConfig both = core::makeSaSystem(kind, 4);
            both.array.drive.maxConcurrentSeeks = 4;
            both.array.drive.maxConcurrentTransfers = 4;
            both.name = "SA(4)+MA+MC";
            points.push_back({&trace, both});
        }
    }
    for (exec::SimPoint &point : points)
        env.apply(point.config);
    const std::vector<core::RunResult> runs =
        exec::runSimPoints(points, env.threads);

    std::size_t next = 0;
    for (Commercial kind : workload::allCommercial()) {
        const std::vector<core::RunResult> rows(
            runs.begin() + next, runs.begin() + next + 4);
        next += 4;
        core::printSummary(std::cout,
                           "Extensions (" +
                               workload::commercialName(kind) + ")",
                           rows);
    }

    std::cout << "Paper check (TR): both extensions should provide "
                 "little benefit over the\nbase single-motion, "
                 "single-channel design.\n";
    return 0;
}
