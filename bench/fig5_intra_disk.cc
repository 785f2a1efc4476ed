/**
 * @file
 * Figure 5: the HC-SD-SA(n) intra-disk parallel design, n = 1..4.
 *
 * For each commercial workload, replays the stream against MD, HC-SD
 * (= SA(1)) and HC-SD-SA(2..4), printing the paper's two rows of
 * graphs: response-time CDFs (top) and rotational-latency PDFs
 * (bottom), plus a summary with the non-zero-seek fraction the paper
 * quotes (55% / 83% / 90% for Websearch on 1 / 2 / 4 arms).
 *
 * Expected shape (paper): SA(2) nearly matches MD for Websearch and
 * TPC-C; Financial needs three arms; returns diminish beyond three;
 * the rotational-latency PDF tail shrinks as arms are added; the
 * non-zero-seek fraction *rises* with arm count.
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/csv_export.hh"
#include "core/report.hh"

int
main()
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(250000);
    std::cout << "=== Intra-disk parallelism: HC-SD-SA(n) (Figure 5) "
                 "===\nrequests per workload: "
              << requests << "\n\n";

    for (Commercial kind : workload::allCommercial()) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        const auto trace = workload::generateCommercial(wp);

        std::vector<core::SystemConfig> systems;
        for (std::uint32_t arms = 1; arms <= 4; ++arms)
            systems.push_back(core::makeSaSystem(kind, arms));
        systems.push_back(core::makeMdSystem(kind));
        std::vector<core::RunResult> results;
        for (core::SystemConfig &system : systems) {
            env.apply(system);
            results.push_back(core::runTrace(trace, system));
        }
        results[0].system = "HC-SD"; // SA(1) == HC-SD

        const std::string name = workload::commercialName(kind);
        core::maybeExportCsv(env.csvDir, "fig5_" + name, results);
        core::printResponseCdf(std::cout,
                               "Figure 5 (" + name +
                                   "): response-time CDF",
                               results);
        core::printRotPdf(std::cout,
                          "Figure 5 (" + name +
                              "): rotational-latency PDF",
                          results);
        core::printSummary(std::cout, "Summary (" + name + ")",
                           results);
    }

    std::cout << "Paper check: SA(2) ~ MD for Websearch/TPC-C; "
                 "Financial needs 3 arms;\nPDF tails shorten and the "
                 "non-zero-seek fraction rises with arm count.\n";
    return 0;
}
