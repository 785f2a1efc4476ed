/**
 * @file
 * Example: sizing a storage array under a response-time SLO.
 *
 * Given a target I/O intensity and a 90th-percentile response-time
 * objective, sweeps arrays of conventional and intra-disk parallel
 * drives (1..16 disks x 1/2/4 actuators), simulates each, and reports
 * every configuration that meets the SLO together with its simulated
 * power draw and its material cost from the paper's Table 9(a) cost
 * model — i.e. the full Section 7.3 + Section 9 decision in one tool.
 *
 * Usage: raid_designer [inter_arrival_ms] [p90_slo_ms] [requests]
 */

#include <cstdlib>
#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "cost/cost_model.hh"
#include "exec/sim_sweep.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

int
main(int argc, char **argv)
{
    using namespace idp;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    double inter_arrival_ms = 2.0;
    double slo_ms = 25.0;
    std::uint64_t requests = 100000;
    if (argc > 1 && std::atof(argv[1]) > 0)
        inter_arrival_ms = std::atof(argv[1]);
    if (argc > 2 && std::atof(argv[2]) > 0)
        slo_ms = std::atof(argv[2]);
    if (argc > 3 && std::atoll(argv[3]) > 0)
        requests = static_cast<std::uint64_t>(std::atoll(argv[3]));

    std::cout << "Designing an array for one request every "
              << inter_arrival_ms << " ms with a p90 SLO of " << slo_ms
              << " ms (" << requests << " requests)\n\n";

    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = inter_arrival_ms;
    wp.addressSpaceSectors = 700ULL * 1000 * 1000 * 1000 / 512;
    const auto trace = workload::generateSynthetic(wp);

    stats::TextTable table("Configurations meeting the SLO");
    table.setHeader({"Config", "Disks", "Actuators", "p90(ms)",
                     "Power(W)", "Cost($, mid)", "Meets SLO"});

    struct Best
    {
        std::string name;
        double cost = 1e18;
        double power = 0.0;
    } best;

    // The 15 candidate arrays are independent simulations: sweep them
    // across cores (IDP_THREADS), then judge the rows in order.
    struct Candidate
    {
        std::uint32_t actuators, disks;
    };
    std::vector<Candidate> candidates;
    std::vector<core::SystemConfig> configs;
    for (std::uint32_t actuators : {1u, 2u, 4u}) {
        for (std::uint32_t disks : {1u, 2u, 4u, 8u, 16u}) {
            disk::DriveSpec drive = disk::barracudaEs750();
            if (actuators > 1)
                drive = disk::makeIntraDiskParallel(drive, actuators);
            const std::string name = std::to_string(disks) + "x SA(" +
                std::to_string(actuators) + ")";
            candidates.push_back({actuators, disks});
            configs.push_back(
                core::makeRaid0System(name, drive, disks));
            env.apply(configs.back());
        }
    }
    const std::vector<core::RunResult> runs =
        exec::runSystems(trace, configs, env.threads);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const core::RunResult &r = runs[i];
        const Candidate &c = candidates[i];
        const double cost =
            cost::driveCost(c.actuators).mid() * c.disks;
        const bool ok = r.p90ResponseMs <= slo_ms;
        table.addRow({r.system, std::to_string(c.disks),
                      std::to_string(c.actuators),
                      stats::fmt(r.p90ResponseMs, 1),
                      stats::fmt(r.power.totalAvgW(), 1),
                      stats::fmt(cost, 0), ok ? "yes" : "no"});
        if (ok && cost < best.cost) {
            best = {r.system, cost, r.power.totalAvgW()};
        }
    }
    table.print(std::cout);

    if (best.cost < 1e18)
        std::cout << "\nCheapest configuration meeting the SLO: "
                  << best.name << " ($" << stats::fmt(best.cost, 0)
                  << ", " << stats::fmt(best.power, 1) << " W)\n";
    else
        std::cout << "\nNo swept configuration met the SLO; raise the "
                     "disk budget or relax the target.\n";
    return 0;
}
