/**
 * @file
 * Example: explore the drive design space the paper opens up.
 *
 * Sweeps (actuators x RPM) for a Barracuda-class drive, simulating a
 * common server load on each design point and printing performance,
 * average power, worst-case temperature against the thermal envelope,
 * drive material cost, and the analytic 5-year survival with graceful
 * degradation — i.e. the paper's Sections 7-9 rolled into a single
 * design-exploration tool. Finishes by naming the cheapest design
 * that meets a latency target inside the thermal envelope.
 *
 * Usage: power_explorer [p90_target_ms] [inter_arrival_ms] [requests]
 */

#include <cstdlib>
#include <iostream>

#include "config/env.hh"
#include "core/experiment.hh"
#include "cost/cost_model.hh"
#include "power/thermal.hh"
#include "reliability/reliability.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

int
main(int argc, char **argv)
{
    using namespace idp;
    using stats::fmt;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    double target_ms = 40.0;
    double inter_ms = 9.0;
    std::uint64_t requests = 60000;
    if (argc > 1 && std::atof(argv[1]) > 0)
        target_ms = std::atof(argv[1]);
    if (argc > 2 && std::atof(argv[2]) > 0)
        inter_ms = std::atof(argv[2]);
    if (argc > 3 && std::atoll(argv[3]) > 0)
        requests = static_cast<std::uint64_t>(std::atoll(argv[3]));

    std::cout << "Design-space exploration: p90 target " << target_ms
              << " ms, one request every " << inter_ms << " ms\n\n";

    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = inter_ms;
    wp.addressSpaceSectors = 700ULL * 1000 * 1000 * 1000 / 512;
    const auto trace = workload::generateSynthetic(wp);

    const power::ThermalModel thermal{power::ThermalParams{}};
    const reliability::ReliabilityModel rel{
        reliability::ReliabilityParams{}};

    stats::TextTable table("actuators x RPM design points");
    table.setHeader({"Design", "p90(ms)", "AvgPower(W)", "PeakTemp(C)",
                     "Cost($)", "5yr survival", "Verdict"});

    struct Best
    {
        std::string name;
        double cost = 1e18;
    } best;

    for (std::uint32_t arms : {1u, 2u, 4u}) {
        for (std::uint32_t rpm : {4200u, 5200u, 7200u}) {
            disk::DriveSpec drive = disk::barracudaEs750();
            if (arms > 1)
                drive = disk::makeIntraDiskParallel(drive, arms);
            if (rpm != drive.rpm)
                drive = disk::withRpm(drive, rpm);
            const std::string name = "SA(" + std::to_string(arms) +
                ")/" + std::to_string(rpm);

            core::SystemConfig system =
                core::makeRaid0System(name, drive, 1);
            env.apply(system);
            const auto result = core::runTrace(trace, system);

            // Operational worst case: one VCM moving + channel.
            const power::PowerModel pm(drive.power);
            const double peak_w =
                pm.idleW() + pm.vcmPeakW() + 1.7;
            const bool cool = thermal.withinEnvelope(peak_w);
            const bool fast = result.p90ResponseMs <= target_ms;
            const double cost = cost::driveCost(arms).mid();
            const double survive =
                rel.survival(5 * 8766.0, arms, true);

            std::string verdict = "ok";
            if (!fast)
                verdict = "too slow";
            else if (!cool)
                verdict = "too hot";
            else if (cost < best.cost)
                best = {name, cost};

            table.addRow({name, fmt(result.p90ResponseMs, 1),
                          fmt(result.power.totalAvgW(), 2),
                          fmt(thermal.temperatureC(peak_w), 1),
                          fmt(cost, 0), fmt(survive, 4), verdict});
        }
    }
    table.print(std::cout);

    if (best.cost < 1e18)
        std::cout << "\nCheapest feasible design: " << best.name
                  << " ($" << fmt(best.cost, 0) << ")\n";
    else
        std::cout << "\nNo swept design met the target; relax the "
                     "latency target or add drives.\n";
    return 0;
}
