/**
 * @file
 * Figure 4: bottleneck analysis of HC-SD.
 *
 * Replays each workload on HC-SD with the simulator's computed seek
 * times artificially scaled to 1/2, 1/4 and 0 (top row of the paper's
 * figure), and separately with rotational latencies scaled the same
 * way (bottom row). MD is included as the reference curve.
 *
 * Expected shape (paper): rotational-latency scaling helps far more
 * than seek scaling; at (1/4)R, Websearch / TPC-C / TPC-H surpass MD,
 * while even S=0 barely moves Financial and TPC-C.
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace {

using namespace idp;

core::RunResult
runScaled(const config::Env &env, const workload::Trace &trace,
          workload::Commercial kind, double seek_scale, double rot_scale,
          const std::string &name)
{
    core::SystemConfig config = core::makeHcsdSystem(kind);
    config.array.drive.seekScale = seek_scale;
    config.array.drive.rotScale = rot_scale;
    config.name = name;
    env.apply(config);
    return core::runTrace(trace, config);
}

} // namespace

int
main()
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(250000);
    std::cout << "=== Bottleneck analysis of HC-SD (Figure 4) ===\n"
              << "requests per workload: " << requests << "\n\n";

    for (Commercial kind : workload::allCommercial()) {
        workload::CommercialParams wp;
        wp.kind = kind;
        wp.requests = requests;
        const auto trace = workload::generateCommercial(wp);
        const std::string name = workload::commercialName(kind);

        const core::RunResult hcsd =
            runScaled(env, trace, kind, 1.0, 1.0, "HC-SD");
        core::SystemConfig md_system = core::makeMdSystem(kind);
        env.apply(md_system);
        const core::RunResult md = core::runTrace(trace, md_system);

        // Top row: seek-time scaling.
        std::vector<core::RunResult> seek_row = {
            hcsd,
            runScaled(env, trace, kind, 0.5, 1.0, "(1/2)S"),
            runScaled(env, trace, kind, 0.25, 1.0, "(1/4)S"),
            runScaled(env, trace, kind, 0.0, 1.0, "S=0"),
            md,
        };
        core::printResponseCdf(std::cout,
                               "Figure 4 (" + name +
                                   "): impact of seek time",
                               seek_row);

        // Bottom row: rotational-latency scaling.
        std::vector<core::RunResult> rot_row = {
            hcsd,
            runScaled(env, trace, kind, 1.0, 0.5, "(1/2)R"),
            runScaled(env, trace, kind, 1.0, 0.25, "(1/4)R"),
            runScaled(env, trace, kind, 1.0, 0.0, "R=0"),
            md,
        };
        core::printResponseCdf(std::cout,
                               "Figure 4 (" + name +
                                   "): impact of rotational latency",
                               rot_row);

        core::printSummary(std::cout, "Summary (" + name + ")",
                           {hcsd, seek_row[3], rot_row[3], md});
    }

    std::cout << "Paper check: the R-scaled curves should rise far "
                 "above the S-scaled curves;\nat (1/4)R Websearch, "
                 "TPC-C and TPC-H should surpass MD.\n";
    return 0;
}
