/**
 * @file
 * Example: consolidating a performance-tuned disk array onto a single
 * intra-disk parallel drive — the paper's headline scenario.
 *
 * Walks the Websearch workload through the three systems the paper
 * compares: the original 6-disk array (MD), a naive migration onto
 * one high-capacity conventional drive (HC-SD), and the same drive
 * with 2..4 independent arm assemblies (HC-SD-SA(n)). Prints the
 * response-time distributions and the power bill for each.
 *
 * Usage: md_consolidation [requests]
 */

#include <cstdlib>
#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    std::uint64_t requests = 100000;
    if (argc > 1 && std::atoll(argv[1]) > 0)
        requests = static_cast<std::uint64_t>(std::atoll(argv[1]));

    std::cout << "Scenario: a search-engine storage array (6 x 19 GB "
                 "10k RPM drives)\nis consolidated onto one 750 GB "
                 "drive. How many arm assemblies does the\nsingle "
                 "drive need to give the array's performance back?\n\n";

    workload::CommercialParams wp;
    wp.kind = Commercial::Websearch;
    wp.requests = requests;
    const auto trace = workload::generateCommercial(wp);
    const auto summary = workload::summarize(trace);
    std::cout << "Workload: " << summary.requests << " requests, "
              << stats::fmt(summary.readFraction * 100, 0)
              << "% reads, " << stats::fmt(summary.meanSizeKB, 0)
              << " KB mean, one request every "
              << stats::fmt(summary.meanInterArrivalMs, 1) << " ms\n\n";

    std::vector<core::SystemConfig> systems = {
        core::makeMdSystem(Commercial::Websearch),
        core::makeHcsdSystem(Commercial::Websearch)};
    for (std::uint32_t arms = 2; arms <= 4; ++arms)
        systems.push_back(core::makeSaSystem(Commercial::Websearch, arms));
    std::vector<core::RunResult> results;
    for (core::SystemConfig &system : systems) {
        env.apply(system);
        results.push_back(core::runTrace(trace, system));
    }

    core::printSummary(std::cout, "Consolidation options", results);
    core::printResponseCdf(std::cout, "Response-time CDF", results);
    core::printPowerBreakdown(std::cout, "Power", results);

    const double md_power = results[0].power.totalAvgW();
    const double sa_power = results.back().power.totalAvgW();
    std::cout << "Takeaway: the 4-actuator drive restores array-class "
                 "response times while\nconsuming "
              << stats::fmt(md_power / sa_power, 1)
              << "x less power than the original array.\n";
    return 0;
}
