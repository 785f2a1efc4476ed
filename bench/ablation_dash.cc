/**
 * @file
 * Ablation: the DASH design space beyond the A dimension.
 *
 * Section 4 of the paper lays out four places to add parallelism —
 * Disk stacks, Arm assemblies, Surfaces, Heads — but evaluates only
 * the A dimension (HC-SD-SA(n)). This bench explores the rest:
 *
 *  - D1A1S1H2 / D1A1S1H4: extra heads per arm at staggered azimuths.
 *    Like the paper predicts, this attacks rotational latency without
 *    a second VCM, but cannot shorten seeks.
 *  - D1A2S1H2: Figure 1(b)'s design — two arms, two heads each.
 *  - D1A1S2H1: paired-surface streaming halves media transfer time;
 *    barely matters for small-request server workloads (transfer is
 *    not the bottleneck), exactly why the paper dismisses it.
 *  - D2 (two half-capacity stacks in one enclosure, modeled as a
 *    2-disk array of smaller-platter drives): the power side of the
 *    paper's Level-1 discussion.
 */

#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "exec/sim_sweep.hh"
#include "power/power_model.hh"
#include "stats/table.hh"

int
main()
{
    using namespace idp;
    using workload::Commercial;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(200000);
    std::cout << "=== Ablation: DASH dimensions (Websearch) ===\n"
              << "requests: " << requests << "\n\n";

    workload::CommercialParams wp;
    wp.kind = Commercial::Websearch;
    wp.requests = requests;
    const auto trace = workload::generateCommercial(wp);

    std::vector<core::SystemConfig> configs;

    auto add_variant = [&](const std::string &name, std::uint32_t arms,
                           std::uint32_t heads, std::uint32_t surfaces) {
        core::SystemConfig config =
            core::makeHcsdSystem(Commercial::Websearch);
        config.array.drive.dash.armAssemblies = arms;
        config.array.drive.dash.headsPerArm = heads;
        config.array.drive.dash.surfaces = surfaces;
        config.array.drive.normalize();
        config.name = name;
        env.apply(config);
        configs.push_back(config);
    };

    add_variant("D1A1S1H1 (conventional)", 1, 1, 1);
    add_variant("D1A1S1H2", 1, 2, 1);
    add_variant("D1A1S1H4", 1, 4, 1);
    add_variant("D1A2S1H1", 2, 1, 1);
    add_variant("D1A2S1H2 (Fig 1b)", 2, 2, 1);
    add_variant("D1A4S1H1", 4, 1, 1);
    add_variant("D1A1S2H1", 1, 1, 2);

    const std::vector<core::RunResult> rows =
        exec::runSystems(trace, configs, env.threads);

    core::printSummary(std::cout, "DASH design points", rows);
    core::printRotPdf(std::cout, "Rotational-latency PDF", rows);

    // D dimension, power side: two 2.6-inch stacks vs one 3.7-inch.
    stats::TextTable d_table(
        "D dimension: spindle power of split stacks (idle W)");
    d_table.setHeader({"Design", "Platter(in)", "Stacks", "Idle(W)"});
    power::PowerParams one;
    power::PowerModel m_one(one);
    power::PowerParams half;
    half.platterDiameterIn = 2.6; // ~half the recording area
    power::PowerModel m_half(half);
    d_table.addRow({"D1 (3.7in stack)", "3.7", "1",
                    stats::fmt(m_one.idleW(), 2)});
    d_table.addRow({"D2 (2x 2.6in stacks)", "2.6", "2",
                    stats::fmt(2 * m_half.idleW(), 2)});
    d_table.print(std::cout);

    std::cout << "\nReading: H-parallelism buys rotational latency "
                 "without a second VCM but\ncannot shorten seeks; "
                 "S-parallelism barely moves small-request workloads;"
                 "\nthe D^4.6 law makes split small-platter stacks "
                 "power-competitive.\n";
    return 0;
}
