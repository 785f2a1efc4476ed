/**
 * @file
 * idpsim — configuration-file-driven simulator front end.
 *
 * The DiskSim-style entry point: describe a drive, a storage system
 * and a workload in an INI file and replay it. See the configs/ directory for
 * ready-made experiments and src/config/sim_config.hh for the full
 * key reference.
 *
 * Usage: idpsim [--trace-out FILE] <config.ini> [more.ini ...]
 *        Each file is one run; results print sequentially, so a
 *        handful of configs make a comparison. With --trace-out the
 *        runs are traced and their spans written as one Chrome
 *        trace-event JSON file (open in Perfetto or chrome://tracing;
 *        each run appears as its own process).
 */

#include <cstring>
#include <iostream>

#include "config/env.hh"
#include "config/sim_config.hh"
#include "core/report.hh"
#include "stats/table.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_export.hh"

int
main(int argc, char **argv)
{
    using namespace idp;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    std::string trace_out;
    std::vector<const char *> configs;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "idpsim: --trace-out needs a file\n";
                return 2;
            }
            trace_out = argv[++i];
        } else {
            configs.push_back(argv[i]);
        }
    }
    if (configs.empty()) {
        std::cerr << "usage: idpsim [--trace-out FILE] <config.ini>"
                     " [more.ini ...]\n";
        return 2;
    }
    if (!trace_out.empty() && !telemetry::kCompiledIn) {
        std::cerr << "idpsim: built with IDP_TELEMETRY=OFF;"
                     " --trace-out ignored\n";
        trace_out.clear();
    }

    telemetry::TraceOptions topts = env.tracing;
    if (!trace_out.empty())
        topts.enabled = true;

    std::vector<core::RunResult> results;
    for (const char *path : configs) {
        const config::IniFile ini = config::IniFile::parseFile(path);
        config::Experiment exp = config::experimentFromIni(ini);
        exp.system.name = exp.name;
        env.apply(exp.system);
        exp.system.tracing = topts;

        const auto summary = workload::summarize(exp.trace);
        std::cout << "[" << exp.name << "] " << summary.requests
                  << " requests, "
                  << stats::fmtPct(summary.readFraction, 0)
                  << " reads, mean inter-arrival "
                  << stats::fmt(summary.meanInterArrivalMs, 2)
                  << " ms\n";

        results.push_back(core::runTrace(exp.trace, exp.system));
    }

    std::cout << '\n';
    core::printSummary(std::cout, "idpsim results", results);
    core::printResponseCdf(std::cout, "Response-time CDF", results);
    core::printPowerBreakdown(std::cout, "Average power", results);
    if (topts.enabled)
        core::printAttribution(std::cout, "Time attribution", results);

    if (!trace_out.empty()) {
        std::vector<telemetry::TraceBatch> batches;
        for (const auto &r : results) {
            if (!r.trace)
                continue;
            telemetry::TraceBatch batch;
            batch.name = r.system;
            batch.spans = r.trace->spans;
            batch.dropped = r.trace->dropped;
            batches.push_back(std::move(batch));
        }
        if (!telemetry::writeChromeTraceFile(trace_out, batches))
            return 1;
        std::cout << "wrote " << trace_out << " ("
                  << batches.size() << " runs)\n";
    }
    return 0;
}
