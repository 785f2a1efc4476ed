/**
 * @file
 * Failure-lifecycle figure: foreground response time across the
 * healthy -> degraded -> rebuilding phases, plus the rebuild window
 * and power, for redundant arrays at iso-capacity:
 *
 *   mirror-SA(4)   RAID-1 pair of 4-actuator intra-disk parallel
 *                  drives (the paper's replacement argument: spare
 *                  arms absorb both reconstruction reads and the
 *                  degraded-read fan-in);
 *   mirror-conv    RAID-1 pair of conventional drives;
 *   raid5-conv     4-disk RAID-5 of conventional drives with
 *                  one-third-capacity members (same logical bytes).
 *
 * Also reported: the RAID-1 positioning-priced replica dispatch
 * against the legacy queue-depth policy on the healthy mirror
 * configs, the rebuild conservation identities (chunks == spare
 * writes), and the steady-state allocation count of the pure rebuild
 * path (expected: zero between chunk landings).
 *
 * Writes BENCH_rebuild.json (idp-bench-v1). IDP_BENCH_SMOKE=1 shrinks
 * the run for CI. Under IDP_TRACE with IDP_CSV_DIR set, each lifecycle
 * run's metrics land in <dir>/fig_rebuild_metrics.csv, one system per
 * config/phase.
 */

#include <iostream>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "bench_json.hh"
#include "config/env.hh"
#include "core/csv_export.hh"
#include "core/run.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

struct ConfigDef
{
    const char *key;   ///< metric prefix
    const char *label; ///< table label
    core::SystemConfig system;
};

struct PhaseResult
{
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double powerW = 0.0;
    std::uint64_t completions = 0;
    double rebuildWindowS = 0.0; ///< rebuilding phase only
    std::uint64_t chunks = 0;
    std::uint64_t spareWrites = 0;
    std::vector<telemetry::MetricSample> metrics; ///< traced runs only
};

enum class Phase
{
    Healthy,
    Degraded,
    Rebuilding,
};

/** One lifecycle phase, serially or (pdes_workers > 0) under the
 *  dynamic-horizon engine: the pre-run failDisk/startRebuild calls
 *  are serially synchronized in both modes (every calendar still at
 *  tick 0), and the rebuild stream serializes its pump ticks. */
PhaseResult
runPhase(core::SystemConfig system, Phase phase,
         const workload::Trace &trace, int pdes_workers = 0)
{
    system.pdesWorkers = pdes_workers;
    core::Run run(system);
    array::StorageArray &arr = run.array();
    if (phase != Phase::Healthy)
        arr.failDisk(0);
    if (phase == Phase::Rebuilding)
        arr.startRebuild(0, array::RebuildParams{});
    for (const auto &req : trace) {
        workload::IoRequest r = req;
        r.lba = req.lba % (arr.logicalSectors() - 64);
        run.sim().schedule(r.arrival, [&arr, r] { arr.submit(r); });
    }
    run.drain();
    arr.sealStats();

    PhaseResult out;
    const array::ArrayStats &st = arr.stats();
    out.meanMs = st.responseMs.mean();
    out.p50Ms = st.responseMs.quantile(0.50);
    out.p99Ms = st.responseMs.p99();
    out.powerW = arr.finishPower().totalAvgW();
    out.completions = st.logicalCompletions;
    if (phase == Phase::Rebuilding) {
        const auto &prog = arr.rebuild()->progress();
        out.rebuildWindowS =
            sim::ticksToMs(prog.finishedAt - prog.startedAt) / 1e3;
        out.chunks = prog.chunksDone;
        out.spareWrites = prog.spareWrites;
    }
    out.metrics = run.metrics();
    return out;
}

/** Healthy-mirror mean response under one RAID-1 replica policy. */
double
mirrorMeanMs(core::SystemConfig system, array::ReplicaPolicy policy,
             const workload::Trace &trace)
{
    system.array.replica = policy;
    return runPhase(system, Phase::Healthy, trace).meanMs;
}

/**
 * Steady-state allocations of the pure rebuild path: a rebuild with
 * no foreground traffic, allocation counter read between the 25% and
 * 75% chunk landings. Rebuild I/O adds no array response sample, and
 * the drives' sample sets keep moments only, so no buffer grows. The
 * probe runs under the checker, whose rebuild ledger is O(1).
 */
std::uint64_t
rebuildSteadyAllocs(core::SystemConfig system, int pdes_workers = 0)
{
    system.pdesWorkers = pdes_workers;
    core::Run run(system);
    array::StorageArray &arr = run.array();
    arr.failDisk(0);

    std::uint64_t start_allocs = 0;
    std::uint64_t end_allocs = 0;
    array::RebuildParams rp;
    rp.onChunk = [&](std::uint64_t chunk) {
        const std::uint64_t total =
            arr.rebuild()->progress().chunksTotal;
        if (chunk == total / 4)
            start_allocs = benchjson::allocCount();
        if (chunk == (3 * total) / 4)
            end_allocs = benchjson::allocCount();
    };
    arr.startRebuild(0, rp);
    run.drain();
    return end_allocs - start_allocs;
}

} // namespace

int
main()
{
    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const bool smoke = env.benchSmoke;
    const std::uint64_t requests =
        env.benchRequests(smoke ? 2000 : 25000);
    std::cout << "=== Failure lifecycle: healthy / degraded / "
                 "rebuilding at iso-capacity ===\nrequests per run: "
              << requests << "\n\n";

    // Iso-capacity at 2 GB logical. Smoke shrinks the member disks so
    // the full rebuild window fits a CI run.
    const double mirror_gb = smoke ? 0.25 : 2.0;
    const double raid5_gb = mirror_gb / 3.0;

    ConfigDef configs[3];
    configs[0].key = "mirror_sa4";
    configs[0].label = "mirror-SA(4)";
    configs[0].system.array.layout = array::Layout::Raid1;
    configs[0].system.array.disks = 2;
    configs[0].system.array.drive = disk::makeIntraDiskParallel(
        disk::enterpriseDrive(mirror_gb, 10000, 2), 4);
    configs[1].key = "mirror_conv";
    configs[1].label = "mirror-conv";
    configs[1].system.array.layout = array::Layout::Raid1;
    configs[1].system.array.disks = 2;
    configs[1].system.array.drive =
        disk::enterpriseDrive(mirror_gb, 10000, 2);
    configs[2].key = "raid5_conv";
    configs[2].label = "raid5-conv";
    configs[2].system.array.layout = array::Layout::Raid5;
    configs[2].system.array.disks = 4;
    configs[2].system.array.drive =
        disk::enterpriseDrive(raid5_gb, 10000, 2);
    configs[2].system.array.stripeSectors = 128;
    // The checker and tracing follow IDP_VERIFY and IDP_TRACE; each
    // run sets its own worker count (serial study points, the parity
    // block's 1/4/8 workers).
    for (ConfigDef &config : configs)
        env.apply(config.system);

    workload::SyntheticParams wp;
    wp.requests = requests;
    // Moderate load: the conventional mirror sits near (not past)
    // saturation healthy, and tips over once degraded — the
    // lifecycle contrast the figure is about. Past saturation every
    // policy drowns in queueing delay.
    wp.meanInterArrivalMs = 12.0;
    wp.readFraction = 0.6;
    wp.sequentialFraction = 0.2;
    // Per-config LBAs are folded onto the logical space at submit.
    wp.addressSpaceSectors = ~0ULL >> 1;
    const workload::Trace trace = workload::generateSynthetic(wp);

    benchjson::BenchReport report("rebuild");
    const Phase phases[] = {Phase::Healthy, Phase::Degraded,
                            Phase::Rebuilding};
    const char *phase_names[] = {"healthy", "degraded", "rebuilding"};

    stats::TextTable table(
        "Foreground response and power across the failure lifecycle");
    table.setHeader({"Config", "Phase", "mean(ms)", "p50(ms)",
                     "p99(ms)", "Power(W)", "RebuildWindow(s)"});

    bool conservation_ok = true;
    PhaseResult lifecycle[3][3]; // [config][phase], serial reference
    std::vector<core::RunResult> traced;
    for (int c = 0; c < 3; ++c) {
        const ConfigDef &config = configs[c];
        for (int p = 0; p < 3; ++p) {
            const PhaseResult r =
                runPhase(config.system, phases[p], trace);
            lifecycle[c][p] = r;
            traced.emplace_back();
            traced.back().system =
                std::string(config.label) + "/" + phase_names[p];
            traced.back().metrics = r.metrics;
            const std::string prefix =
                std::string(config.key) + "_" + phase_names[p];
            report.add(prefix + "_mean_ms", r.meanMs, "ms");
            report.add(prefix + "_p50_ms", r.p50Ms, "ms");
            report.add(prefix + "_p99_ms", r.p99Ms, "ms");
            report.add(prefix + "_power_w", r.powerW, "W");
            std::string window = "--";
            if (phases[p] == Phase::Rebuilding) {
                report.add(prefix + "_window_s", r.rebuildWindowS,
                           "s");
                report.add(prefix + "_chunks",
                           static_cast<double>(r.chunks), "chunks");
                report.add(prefix + "_spare_writes",
                           static_cast<double>(r.spareWrites),
                           "writes");
                conservation_ok = conservation_ok &&
                    r.chunks == r.spareWrites &&
                    r.completions == requests;
                window = stats::fmt(r.rebuildWindowS, 1);
            }
            table.addRow({config.label, phase_names[p],
                          stats::fmt(r.meanMs, 2),
                          stats::fmt(r.p50Ms, 2),
                          stats::fmt(r.p99Ms, 2),
                          stats::fmt(r.powerW, 1), window});
        }
        table.addSeparator();
    }
    table.print(std::cout);
    report.add("conservation_ok", conservation_ok ? 1.0 : 0.0,
               "bool");
    core::maybeExportMetricsCsv(env.csvDir, "fig_rebuild", traced);

    // RAID-1 replica dispatch: positioning pricing vs the legacy
    // queue-depth policy on the healthy mirrors.
    stats::TextTable policy_table(
        "RAID-1 replica dispatch: positioning vs queue policy "
        "(healthy, mean ms)");
    policy_table.setHeader(
        {"Config", "Positioning", "Queue", "Gain"});
    double best_gain_pct = -1e9;
    for (int c = 0; c < 2; ++c) {
        const double pos = mirrorMeanMs(
            configs[c].system, array::ReplicaPolicy::Positioning, trace);
        const double queue = mirrorMeanMs(
            configs[c].system, array::ReplicaPolicy::Queue, trace);
        const double gain_pct = (1.0 - pos / queue) * 100.0;
        best_gain_pct = std::max(best_gain_pct, gain_pct);
        report.add(std::string(configs[c].key) + "_pos_mean_ms", pos,
                   "ms");
        report.add(std::string(configs[c].key) + "_queue_mean_ms",
                   queue, "ms");
        policy_table.addRow({configs[c].label, stats::fmt(pos, 3),
                             stats::fmt(queue, 3),
                             stats::fmt(gain_pct, 1) + "%"});
    }
    std::cout << '\n';
    policy_table.print(std::cout);
    report.add("positioning_best_gain_pct", best_gain_pct, "%");

    // Pure rebuild path: no allocations in steady state.
    const std::uint64_t steady_allocs =
        rebuildSteadyAllocs(configs[0].system);
    report.add("rebuild_steady_allocs",
               static_cast<double>(steady_allocs), "allocs");

    // Dynamic-horizon engine: the degraded and rebuilding phases of
    // the SA(4) mirror re-run under the conservative engine — the
    // membership-change cases no constant lookahead window admits.
    // Byte-level phase statistics must match the serial reference at
    // every worker count, and the same 25%-75% chunk window of the
    // pure rebuild must stay allocation-free (the per-round horizon
    // computation reads drive bounds into fixed storage).
    bool pdes_matches = true;
    for (int w : {1, 4, 8}) {
        const PhaseResult rb =
            runPhase(configs[0].system, Phase::Rebuilding, trace, w);
        const PhaseResult &ref = lifecycle[0][2];
        pdes_matches = pdes_matches && rb.meanMs == ref.meanMs &&
            rb.p99Ms == ref.p99Ms &&
            rb.completions == ref.completions &&
            rb.chunks == ref.chunks &&
            rb.spareWrites == ref.spareWrites;
    }
    {
        const PhaseResult dg =
            runPhase(configs[0].system, Phase::Degraded, trace, 4);
        const PhaseResult &ref = lifecycle[0][1];
        pdes_matches = pdes_matches && dg.meanMs == ref.meanMs &&
            dg.p99Ms == ref.p99Ms &&
            dg.completions == ref.completions;
    }
    report.add("pdes_rebuild_matches_serial",
               pdes_matches ? 1.0 : 0.0, "bool");
    const std::uint64_t pdes_steady_allocs =
        rebuildSteadyAllocs(configs[0].system, 4);
    report.add("pdes_rebuild_steady_allocs",
               static_cast<double>(pdes_steady_allocs), "allocs");

    const std::string path = report.write(env.benchOut);
    std::cout << "\nconservation: "
              << (conservation_ok ? "ok" : "VIOLATED")
              << "; rebuild steady-state allocs: " << steady_allocs
              << " (engine: " << pdes_steady_allocs << ")"
              << "; engine matches serial: "
              << (pdes_matches ? "yes" : "NO") << "\nreport: " << path
              << '\n';
    return (conservation_ok && pdes_matches) ? 0 : 1;
}
