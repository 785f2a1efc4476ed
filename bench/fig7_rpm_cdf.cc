/**
 * @file
 * Figure 7: response-time CDFs of reduced-RPM intra-disk parallel
 * designs that break even with (or beat) the original MD system.
 *
 * The paper plots, for Websearch and TPC-C, the SA(4) design at
 * 4200/5200/6200 RPM against MD, and for TPC-H additionally the SA(2)
 * variants. We print SA(2) and SA(4) at all three reduced RPMs plus
 * MD for those three workloads (Financial never breaks even, exactly
 * as in the paper, so it is reported separately in the summary).
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
    std::cout << "=== Reduced-RPM intra-disk designs vs MD (Figure 7) "
                 "===\nrequests per workload: "
              << requests << "\n\n";

    const Commercial kinds[] = {Commercial::Websearch,
                                Commercial::TpcC, Commercial::TpcH};
    const std::uint32_t rpms[] = {6200, 5200, 4200};

    // 3 workloads x 6 design points, all independent: one flat sweep.
    std::vector<workload::Trace> traces;
    for (Commercial kind : kinds) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        traces.push_back(workload::generateCommercial(wp));
    }
    std::vector<exec::SimPoint> points;
    std::size_t systems_per_workload = 0;
    for (std::size_t t = 0; t < std::size(kinds); ++t) {
        const Commercial kind = kinds[t];
        std::vector<core::SystemConfig> configs;
        for (std::uint32_t rpm : rpms) {
            core::SystemConfig sa4 = core::makeSaSystem(kind, 4, rpm);
            sa4.name = "SA(4)/" + std::to_string(rpm);
            configs.push_back(sa4);
        }
        for (std::uint32_t rpm : {6200u, 5200u}) {
            core::SystemConfig sa2 = core::makeSaSystem(kind, 2, rpm);
            sa2.name = "SA(2)/" + std::to_string(rpm);
            configs.push_back(sa2);
        }
        configs.push_back(core::makeMdSystem(kind));
        systems_per_workload = configs.size();
        for (auto &config : configs)
            points.push_back({&traces[t], config});
    }
    for (exec::SimPoint &point : points)
        env.apply(point.config);
    const std::vector<core::RunResult> runs =
        exec::runSimPoints(points, env.threads);

    std::size_t next = 0;
    for (Commercial kind : kinds) {
        const std::vector<core::RunResult> rows(
            runs.begin() + next,
            runs.begin() + next + systems_per_workload);
        next += systems_per_workload;

        const std::string name = workload::commercialName(kind);
        core::printResponseCdf(std::cout,
                               "Figure 7 (" + name +
                                   "): reduced-RPM designs vs MD",
                               rows);
        core::printSummary(std::cout, "Summary (" + name + ")", rows);
    }

    std::cout << "Paper check: several reduced-RPM SA design points "
                 "match or exceed MD while\nconsuming an order of "
                 "magnitude less power than the array (see Figure 6 "
                 "bench).\n";
    return 0;
}
