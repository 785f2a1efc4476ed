/**
 * @file
 * Ablation: media faults and degraded arrays.
 *
 * Two dependability questions the paper's Section 8 raises but does
 * not quantify:
 *
 *  1. Media retries (ECC re-reads costing a full revolution) inflate
 *     tail latency. Do spare arms absorb the hiccups? Sweep the
 *     injected retry rate on conventional vs SA(4).
 *  2. A RAID-5 array in degraded mode fans reads across all survivors.
 *     How much of the degradation do intra-disk parallel members hide?
 *
 * Under IDP_TRACE with IDP_CSV_DIR set, each RAID-5 run's metrics land
 * in <dir>/ablation_faults_metrics.csv, one system per members/mode.
 */

#include <iostream>

#include "config/env.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run.hh"
#include "exec/fork_join.hh"
#include "exec/sim_sweep.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

int
main()
{
    using namespace idp;
    using stats::fmt;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const std::uint64_t requests = env.benchRequests(100000);
    std::cout << "=== Ablation: media faults and degraded arrays ===\n"
              << "requests: " << requests << "\n\n";

    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = 8.0;
    wp.addressSpaceSectors = 700ULL * 1000 * 1000 * 1000 / 512;
    const auto trace = workload::generateSynthetic(wp);

    // --- media retry sweep ----------------------------------------
    stats::TextTable retry_table(
        "Media retry rate vs response time (single drive)");
    retry_table.setHeader({"Drive", "RetryRate", "Mean(ms)",
                           "P99(ms)", "Retries", "HardErrors"});
    std::vector<double> retry_rates;
    std::vector<core::SystemConfig> retry_configs;
    for (std::uint32_t arms : {1u, 4u}) {
        for (double rate : {0.0, 0.02, 0.10}) {
            disk::DriveSpec drive = disk::barracudaEs750();
            if (arms > 1)
                drive = disk::makeIntraDiskParallel(drive, arms);
            drive.mediaRetryRate = rate;
            retry_rates.push_back(rate);
            retry_configs.push_back(core::makeRaid0System(
                arms == 1 ? "conventional" : "SA(4)", drive, 1));
            env.apply(retry_configs.back());
        }
    }
    const std::vector<core::RunResult> retry_runs =
        exec::runSystems(trace, retry_configs, env.threads);
    for (std::size_t i = 0; i < retry_runs.size(); ++i) {
        const core::RunResult &r = retry_runs[i];
        retry_table.addRow({r.system, fmt(retry_rates[i], 2),
                            fmt(r.meanResponseMs, 2),
                            fmt(r.p99ResponseMs, 2),
                            std::to_string(r.mediaRetries),
                            std::to_string(r.hardErrors)});
    }
    retry_table.print(std::cout);
    std::cout << '\n';

    // --- degraded RAID-5 -------------------------------------------
    stats::TextTable degraded_table(
        "RAID-5 (4 disks): healthy vs degraded mode");
    degraded_table.setHeader({"Members", "Mode", "Mean(ms)", "P90(ms)",
                              "AvgPower(W)"});
    // A member fails before the traffic starts, which runTrace has no
    // hook for, so each (members, mode) point is its own serial
    // core::Run, run through the generic sweep engine and returning
    // its table row and (traced) metrics.
    struct Raid5Point
    {
        std::uint32_t arms;
        bool degraded;
    };
    struct Raid5Run
    {
        std::vector<std::string> row;
        core::RunResult result; ///< system and metrics only
    };
    std::vector<Raid5Point> raid5_points;
    for (std::uint32_t arms : {1u, 4u})
        for (bool degraded : {false, true})
            raid5_points.push_back({arms, degraded});

    const auto raid5_runs = exec::parallelMap(
        raid5_points.size(), env.threads,
        [&trace, &env, &raid5_points](std::size_t i) -> Raid5Run {
            const Raid5Point &pt = raid5_points[i];
            core::SystemConfig system;
            system.array.layout = array::Layout::Raid5;
            system.array.disks = 4;
            system.array.drive = disk::barracudaEs750();
            if (pt.arms > 1)
                system.array.drive = disk::makeIntraDiskParallel(
                    system.array.drive, pt.arms);
            env.apply(system);
            system.pdesWorkers = 0;
            core::Run run(system);
            array::StorageArray &arr = run.array();
            if (pt.degraded)
                arr.failDisk(1);
            for (const auto &r : trace) {
                workload::IoRequest scaled = r;
                scaled.lba %= arr.logicalSectors() - 512;
                run.sim().schedule(r.arrival, [&arr, scaled] {
                    arr.submit(scaled);
                });
            }
            run.drain();
            const stats::SampleSet &resp = arr.stats().responseMs;
            const auto power = arr.finishPower();
            Raid5Run out;
            out.row = {
                pt.arms == 1 ? "conventional" : "SA(4)",
                pt.degraded ? "degraded" : "healthy",
                fmt(resp.mean(), 2),
                fmt(resp.p90(), 2),
                fmt(power.totalAvgW(), 1),
            };
            out.result.system = out.row[0] + "/" + out.row[1];
            out.result.metrics = run.metrics();
            return out;
        });
    std::vector<core::RunResult> traced;
    for (const Raid5Run &r : raid5_runs) {
        degraded_table.addRow(r.row);
        traced.push_back(r.result);
    }
    degraded_table.print(std::cout);
    core::maybeExportMetricsCsv(env.csvDir, "ablation_faults", traced);

    std::cout << "\nReading: retry hiccups and reconstruction fan-out "
                 "both cost rotations;\nintra-disk parallel members "
                 "absorb them with spare positioning capacity.\n";
    return 0;
}
