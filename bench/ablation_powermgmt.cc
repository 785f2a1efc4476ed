/**
 * @file
 * Ablation: conventional power-management knobs vs intra-disk
 * parallelism.
 *
 * The paper's framing (Sections 1 and 5): prior work saves storage
 * power by adding knobs to conventional disks — spin-down/MAID,
 * multi-RPM (DRPM) — while intra-disk parallelism instead *removes*
 * disks by making one drive fast enough. This bench puts the two
 * philosophies side by side on the Financial consolidation scenario (24 disks whose Zipf-skewed
 * traffic leaves the cold tail genuinely idle for seconds):
 *
 *   MD                 the original 24-disk array,
 *   MD + spin-down     the array with a 2 s idle spin-down knob,
 *   HC-SD              naive single-drive consolidation,
 *   HC-SD-SA(3)        the intra-disk parallel consolidation.
 *
 * Expected: spin-down recovers a slice of MD's idle power but leaves
 * most of it (server idle gaps are shorter than spin-up costs allow)
 * and risks latency cliffs; the parallel drive deletes the idle power
 * entirely by deleting the disks, at array-class performance.
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
    const std::uint64_t requests = env.benchRequests(150000);
    std::cout << "=== Ablation: power-management knobs vs intra-disk "
                 "parallelism (Financial) ===\nrequests: "
              << requests << "\n\n";

    workload::CommercialParams wp;
    wp.kind = Commercial::Financial;
    wp.requests = requests;
    const auto trace = workload::generateCommercial(wp);

    std::vector<core::SystemConfig> configs;

    configs.push_back(core::makeMdSystem(Commercial::Financial));

    core::SystemConfig md_spin =
        core::makeMdSystem(Commercial::Financial);
    md_spin.array.drive.spinDownAfterMs = 2000.0;
    md_spin.array.drive.spinUpMs = 6000.0;
    md_spin.name = "MD+spindown";
    configs.push_back(md_spin);

    configs.push_back(core::makeHcsdSystem(Commercial::Financial));
    configs.push_back(core::makeSaSystem(Commercial::Financial, 3));

    for (core::SystemConfig &config : configs)
        env.apply(config);
    const std::vector<core::RunResult> rows =
        exec::runSystems(trace, configs, env.threads);

    core::printSummary(std::cout, "Knobs vs parallelism", rows);
    core::printResponseCdf(std::cout, "Response-time CDF", rows);
    core::printPowerBreakdown(std::cout, "Average power", rows);

    std::cout << "Reading: the knob only ever catches the Zipf-cold "
                 "tail of the array (hot\nmembers never idle for "
                 "seconds — the paper's own Figure 3 observation), "
                 "and\neach catch risks a multi-second spin-up cliff; "
                 "the 3-actuator drive removes\nthe disks instead — "
                 "an order of magnitude less power outright.\n";
    return 0;
}
