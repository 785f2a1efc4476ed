/**
 * @file
 * Figures 2 and 3 (+ Table 2): the performance and power limit study.
 *
 * For each of the four commercial workloads, replay the stream against
 * the original multi-disk system (MD, Table 2) and against a single
 * high-capacity conventional drive (HC-SD, Barracuda ES-like) holding
 * the same data concatenated. Prints:
 *   - Table 2: workload / original-system characteristics,
 *   - Figure 2: response-time CDFs (MD vs HC-SD),
 *   - Figure 3: average power, broken into the four operating modes.
 *
 * Expected shape (paper): HC-SD collapses on Financial / Websearch /
 * TPC-C but roughly matches MD on TPC-H; MD consumes roughly an order
 * of magnitude more power, most of it while idle.
 *
 * Scale with IDP_REQUESTS / IDP_SCALE environment variables.
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/csv_export.hh"
#include "core/report.hh"
#include "stats/table.hh"

int
main()
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(250000);

    std::cout << "=== Limit study: MD vs HC-SD (Figures 2 and 3) ===\n"
              << "requests per workload: " << requests << "\n\n";

    // Table 2 header.
    stats::TextTable t2("Table 2: workloads and original MD systems");
    t2.setHeader({"Workload", "PaperRequests", "Disks",
                  "Capacity(GB)", "RPM", "Platters"});
    for (Commercial kind : workload::allCommercial()) {
        const auto &m = workload::workloadModel(kind);
        t2.addRow({m.name, std::to_string(m.paperRequests),
                   std::to_string(m.disks), stats::fmt(m.capacityGB, 2),
                   std::to_string(m.rpm), std::to_string(m.platters)});
    }
    t2.print(std::cout);
    std::cout << '\n';

    std::vector<core::RunResult> power_rows;
    for (Commercial kind : workload::allCommercial()) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        const auto trace = workload::generateCommercial(wp);
        const auto summary = workload::summarize(trace);

        std::cout << "--- " << workload::commercialName(kind)
                  << ": " << summary.requests << " requests, "
                  << stats::fmt(summary.readFraction * 100.0, 1)
                  << "% reads, mean inter-arrival "
                  << stats::fmt(summary.meanInterArrivalMs, 2)
                  << " ms, mean size "
                  << stats::fmt(summary.meanSizeKB, 1) << " KB ---\n";

        core::SystemConfig md_system = core::makeMdSystem(kind);
        core::SystemConfig hcsd_system = core::makeHcsdSystem(kind);
        env.apply(md_system);
        env.apply(hcsd_system);
        const core::RunResult md = core::runTrace(trace, md_system);
        const core::RunResult hcsd = core::runTrace(trace, hcsd_system);

        std::vector<core::RunResult> pair = {md, hcsd};
        core::maybeExportCsv(env.csvDir,
                             "fig2_" + workload::commercialName(kind),
                             pair);
        core::printResponseCdf(
            std::cout,
            "Figure 2 (" + workload::commercialName(kind) +
                "): response-time CDF",
            pair);
        core::printSummary(std::cout, "Summary", pair);

        core::RunResult md_row = md;
        md_row.system = workload::commercialName(kind) + " MD";
        core::RunResult hcsd_row = hcsd;
        hcsd_row.system = workload::commercialName(kind) + " HC-SD";
        power_rows.push_back(md_row);
        power_rows.push_back(hcsd_row);
    }

    core::printPowerBreakdown(
        std::cout, "Figure 3: average power, MD vs HC-SD", power_rows);

    std::cout << "Paper check: HC-SD should collapse on Financial / "
                 "Websearch / TPC-C,\nroughly match MD on TPC-H, and "
                 "consume ~10x less power than MD.\n";
    return 0;
}
