/**
 * @file
 * Energy-governor figure: energy vs tail latency for the online
 * RPM/actuator governor against the paper's static reduced-RPM
 * points (Figures 6/7 turned into a control problem).
 *
 * Three workload families, each run governed and at static
 * 7200/6200/5200/4200:
 *
 *   square    open-loop square wave — long lulls punctuated by
 *             bursts the slow static points cannot absorb;
 *   closed    closed-loop workers with think time — a fixed
 *             population whose offered load tracks service speed;
 *   diurnal   the serving stack's million-tenant day/night sinusoid
 *             with periodic bursts (serve::runService).
 *
 * The claim under test: the governor's (energy, p99) point dominates
 * or matches the best static RPM that still meets the family's
 * latency SLO — static 7200 wastes spindle energy through every
 * lull, static 4200 blows the SLO in every burst, and the governor
 * rides the square wave between them.
 *
 * Also reported: steady-state allocations of the pure governor
 * control path (expected: zero — ring, scratch and per-drive tables
 * are all pre-sized), and the mode/energy conservation identity on
 * every run via the per-RPM-segment power integration.
 *
 * Writes BENCH_governor.json (idp-bench-v1). IDP_BENCH_SMOKE=1
 * shrinks every family for CI.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "array/storage_array.hh"
#include "bench_json.hh"
#include "config/env.hh"
#include "core/closed_loop.hh"
#include "core/experiment.hh"
#include "power/governor.hh"
#include "serve/service_loop.hh"
#include "sim/event_queue.hh"
#include "stats/table.hh"
#include "workload/request.hh"

namespace {

using namespace idp;

/** The static study points, descending (levels the governor rides). */
const std::uint32_t kRpmPoints[] = {7200, 6200, 5200, 4200};

/** One (config, family) outcome. */
struct PointResult
{
    double p99Ms = 0.0;
    double energyJ = 0.0;
    double avgW = 0.0;
    std::uint64_t completions = 0;
};

/** 2-actuator intra-disk parallel member at the given spindle speed. */
disk::DriveSpec
memberDrive(std::uint32_t rpm)
{
    disk::DriveSpec drive = disk::withRpm(
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 2), rpm);
    // Give actuator parking something to shed (see PowerParams).
    drive.power.actuatorIdleW = 0.35;
    // DRPM-class fast spindle transitions (Gurumurthi et al. model
    // sub-second shifts between adjacent speed steps); the default
    // 400 ms is the conservative full-stack ramp.
    drive.rpmShiftMs = 150.0;
    return drive;
}

/** Per-family control loop: a 100 ms window keeps burst detection
 *  latency one order below every family's SLO; the busy thresholds
 *  are family-specific because utilisation at a given arrival rate
 *  depends on where the family's lulls sit relative to capacity. */
power::GovernorParams
governorParams(double slo_p99_ms, double busy_high, double busy_low,
               double guard = 0.5, double dwell_ms = 2000.0)
{
    power::GovernorParams g;
    g.enabled = true;
    g.sloP99Ms = slo_p99_ms;
    g.windowMs = 100.0;
    g.busyHigh = busy_high;
    g.busyLow = busy_low;
    g.guardFraction = guard;
    g.minDwellMs = dwell_ms;
    g.parkKeepArms = 1;
    g.rpmLevels.assign(std::begin(kRpmPoints), std::end(kRpmPoints));
    return g;
}

core::SystemConfig
systemFor(const config::Env &env, std::uint32_t static_rpm, bool governed,
          const power::GovernorParams &gov)
{
    core::SystemConfig config = core::makeRaid0System(
        governed ? "governor" : "static-" + std::to_string(static_rpm),
        memberDrive(static_rpm), 1);
    if (governed)
        config.array.governor = gov;
    env.apply(config);
    config.pdesWorkers = 0; // study points run serial; the parity
    return config;          // block re-runs governed under the engine
}

// ---------------------------------------------------------------
// Family 1: open-loop square wave.
// ---------------------------------------------------------------

/**
 * Alternating lull/burst trace: exponential arrivals at
 * @p lull_iops for @p lull_s, then @p burst_iops for @p burst_s,
 * repeated @p cycles times. 60% reads, 8..64 sectors.
 */
workload::Trace
squareWaveTrace(std::uint32_t cycles, double lull_s, double lull_iops,
                double burst_s, double burst_iops)
{
    workload::Trace trace;
    sim::Rng rng(0x50A12E);
    const std::uint64_t space = 1400ULL * 1000 * 1000;
    double t_ms = 0.0;
    std::uint64_t id = 0;
    for (std::uint32_t c = 0; c < cycles; ++c) {
        for (int phase = 0; phase < 2; ++phase) {
            const double end_ms = t_ms +
                (phase == 0 ? lull_s : burst_s) * 1000.0;
            const double gap_ms =
                1000.0 / (phase == 0 ? lull_iops : burst_iops);
            while (t_ms < end_ms) {
                t_ms += rng.exponential(gap_ms);
                workload::IoRequest r;
                r.id = id++;
                r.arrival = sim::msToTicks(t_ms);
                r.lba = rng.uniformInt(space);
                r.sectors = static_cast<std::uint32_t>(
                    rng.uniformInt(8, 64));
                r.isRead = rng.chance(0.6);
                trace.push_back(r);
            }
        }
    }
    return trace;
}

PointResult
runSquare(const core::SystemConfig &config,
          const workload::Trace &trace)
{
    const core::RunResult r = core::runTrace(trace, config);
    PointResult out;
    out.p99Ms = r.p99ResponseMs;
    out.energyJ = r.power.totalEnergyJ;
    out.avgW = r.power.totalAvgW();
    out.completions = r.completions;
    return out;
}

// ---------------------------------------------------------------
// Family 2: closed-loop workers with think time.
// ---------------------------------------------------------------

PointResult
runClosed(const core::SystemConfig &config, double horizon_s)
{
    core::ClosedLoopParams params;
    params.workers = 16;
    params.thinkMs = 50.0; // saturating: offered load tracks speed
    params.horizonSeconds = horizon_s;
    const core::ClosedLoopResult r =
        core::runClosedLoop(config, params);
    PointResult out;
    // The closed-loop runner reports p90 as its tail quantile; the
    // family's SLO is expressed against it.
    out.p99Ms = r.p90ResponseMs;
    out.energyJ = r.power.totalEnergyJ;
    out.avgW = r.power.totalAvgW();
    out.completions = r.completions;
    return out;
}

// ---------------------------------------------------------------
// Family 3: serving diurnal (day/night sinusoid + periodic bursts).
// ---------------------------------------------------------------

PointResult
runDiurnal(const core::SystemConfig &config, std::uint64_t tenants,
           double mean_iops, double duration_s)
{
    serve::ServeParams params;
    params.tenants = tenants;
    // Pure open arrivals so the offered load is set by tenants *
    // openRatePerSec alone (closed sessions would self-throttle on
    // the slow statics and hide their SLO breach).
    params.openFraction = 1.0;
    params.openRatePerSec = mean_iops / static_cast<double>(tenants);
    params.durationSeconds = duration_s;
    params.warmupSeconds = duration_s / 10.0;
    // One full day/night cycle per run: the trough has to outlast
    // the governor's descent staircase (dwell + settle per level)
    // for reduced-RPM residency to accumulate.
    params.modulation.diurnalPeriodSec = duration_s;
    params.modulation.diurnalAmplitude = 0.85;
    // Bursts crest just past 7200's comfort zone: 6200 tips over its
    // capacity knee during each one while 7200 stays clean, which is
    // what separates their worst-decile tails.
    params.modulation.burstPeriodSec = duration_s / 4.0;
    params.modulation.burstDurationSec = duration_s / 40.0;
    params.modulation.burstMultiplier = 1.25;
    // A local quantile window: the default 4096 samples spans nearly
    // a minute of night-trough traffic, so one slow stretch would
    // pin every snapshot p99 long after it ended. 256 samples is a
    // couple of seconds at the daytime peak — local enough that each
    // snapshot reflects its own moment of the day, wide enough that
    // the p99 rank still separates adjacent RPM points.
    params.slo.windowSamples = 256;
    const serve::ServeResult r = serve::runService(config, params);
    PointResult out;
    // Tail metric: the completion-weighted worst-decile snapshot p99
    // — the latency cutoff of the best-served 90% of traffic. Weight
    // by completions so the statistic is set by the daytime peak
    // (where the static RPM points actually separate); an unweighted
    // snapshot count would let the near-idle night — tens of
    // completions per snapshot but half the rows — drown it out.
    std::vector<const serve::ServeSnapshot *> steady;
    double total_weight = 0.0;
    for (const serve::ServeSnapshot &snap : r.snapshots)
        if (snap.simSeconds > params.warmupSeconds) {
            steady.push_back(&snap);
            total_weight += static_cast<double>(snap.completions);
        }
    if (steady.empty() || total_weight <= 0.0) {
        out.p99Ms = r.p99Ms;
    } else {
        std::sort(steady.begin(), steady.end(),
                  [](const serve::ServeSnapshot *a,
                     const serve::ServeSnapshot *b) {
                      return a->p99Ms < b->p99Ms;
                  });
        double acc = 0.0;
        out.p99Ms = steady.back()->p99Ms;
        for (const serve::ServeSnapshot *snap : steady) {
            acc += static_cast<double>(snap->completions);
            if (acc >= total_weight * 0.9) {
                out.p99Ms = snap->p99Ms;
                break;
            }
        }
    }
    out.energyJ = r.power.totalEnergyJ;
    out.avgW = r.power.totalAvgW();
    out.completions = r.totals.completions;
    return out;
}

// ---------------------------------------------------------------
// Steady-state allocations of the pure governor control path.
// ---------------------------------------------------------------

std::uint64_t
governorSteadyAllocs()
{
    sim::Simulator simul;
    // Pre-size the calendar: the event slab / free-list / heap grow
    // geometrically on first use, and a late doubling would be
    // misattributed to the governor path under test.
    simul.reserveEvents(64);
    disk::DiskDrive drive(simul, memberDrive(7200),
                          [](const workload::IoRequest &, sim::Tick,
                             const disk::ServiceInfo &) {});
    power::GovernorParams g = governorParams(50.0, 0.5, 0.2);
    g.windowMs = 10.0;
    g.minDwellMs = 50.0;
    power::Governor gov(simul, g, {&drive});

    // Synthetic completion feed: a steady trickle of sub-SLO samples
    // keeps the loop awake while the drive itself stays idle, so the
    // measured window covers exactly onCompletion + controlTick with
    // the governor parked at its bottom level.
    const sim::Tick feed_gap = sim::msToTicks(2.0);
    const sim::Tick stop_at = sim::secondsToTicks(6.0);
    std::function<void()> feed = [&] {
        gov.onCompletion(3.0);
        if (simul.now() < stop_at)
            simul.scheduleAfter(feed_gap, [&] { feed(); });
    };
    simul.scheduleAfter(feed_gap, [&] { feed(); });

    std::uint64_t a0 = 0, a1 = 0;
    simul.schedule(sim::secondsToTicks(2.0),
                   [&] { a0 = benchjson::allocCount(); });
    simul.schedule(sim::secondsToTicks(5.5),
                   [&] { a1 = benchjson::allocCount(); });
    simul.run();
    return a1 - a0;
}

/** Best (lowest-energy) static point whose p99 meets the SLO; falls
 *  back to 7200 when none does. */
std::size_t
bestStaticMeetingSlo(const std::vector<PointResult> &statics,
                     double slo_p99_ms)
{
    std::size_t best = 0; // statics[0] is 7200
    for (std::size_t i = 0; i < statics.size(); ++i)
        if (statics[i].p99Ms <= slo_p99_ms &&
            statics[i].energyJ < statics[best].energyJ)
            best = i;
    return best;
}

struct FamilyOutcome
{
    std::string name;
    double sloMs = 0.0;
    PointResult governed;
    std::vector<PointResult> statics; ///< kRpmPoints order
};

void
reportFamily(benchjson::BenchReport &report, stats::TextTable &table,
             const FamilyOutcome &fam, bool &governor_ok,
             double &best_savings_pct)
{
    const std::size_t best =
        bestStaticMeetingSlo(fam.statics, fam.sloMs);
    const PointResult &ref = fam.statics[best];
    const double savings_pct =
        (1.0 - fam.governed.energyJ / ref.energyJ) * 100.0;

    for (std::size_t i = 0; i < fam.statics.size(); ++i) {
        const std::string prefix = fam.name + "_static" +
            std::to_string(kRpmPoints[i]);
        report.add(prefix + "_p99_ms", fam.statics[i].p99Ms, "ms");
        report.add(prefix + "_energy_j", fam.statics[i].energyJ, "J");
        table.addRow({fam.name,
                      "static-" + std::to_string(kRpmPoints[i]),
                      stats::fmt(fam.statics[i].p99Ms, 2),
                      stats::fmt(fam.statics[i].energyJ, 0),
                      stats::fmt(fam.statics[i].avgW, 2),
                      fam.statics[i].p99Ms <= fam.sloMs ? "yes"
                                                        : "NO",
                      i == best ? "<-- best static" : ""});
    }
    report.add(fam.name + "_governor_p99_ms", fam.governed.p99Ms,
               "ms");
    report.add(fam.name + "_governor_energy_j", fam.governed.energyJ,
               "J");
    report.add(fam.name + "_slo_ms", fam.sloMs, "ms");
    report.add(fam.name + "_energy_savings_pct", savings_pct, "%");

    // The gate: at iso-SLO the governor must not lose to the best
    // static point (small tolerance for integration noise).
    const bool slo_met = fam.governed.p99Ms <= fam.sloMs;
    const bool not_worse = fam.governed.energyJ <= ref.energyJ * 1.02;
    governor_ok = governor_ok && slo_met && not_worse;
    best_savings_pct = std::max(best_savings_pct, savings_pct);

    table.addRow({fam.name, "governor",
                  stats::fmt(fam.governed.p99Ms, 2),
                  stats::fmt(fam.governed.energyJ, 0),
                  stats::fmt(fam.governed.avgW, 2),
                  slo_met ? "yes" : "NO",
                  stats::fmt(savings_pct, 1) + "% vs best static"});
    table.addSeparator();
}

} // namespace

int
main()
{
    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const bool smoke = env.benchSmoke;
    std::cout << "=== Online energy governor vs static RPM points "
                 "===\n\n";

    benchjson::BenchReport report("governor");
    stats::TextTable table(
        "Energy vs p99 per workload family (SLO-met statics marked)");
    table.setHeader({"Family", "Config", "p99(ms)", "Energy(J)",
                     "AvgPower(W)", "SLO met", "Note"});

    bool governor_ok = true;
    bool pdes_matches = true;
    double best_savings_pct = -1e9;

    // ---- square wave ------------------------------------------
    // Burst intensity sits where the static points split: at 140
    // IOPS the SA(2) member's p99 is ~155 ms at 7200 but ~178 ms at
    // 6200 (and far worse below), so an SLO of 170 ms admits exactly
    // one static point. Lulls are long enough for the governor to
    // bank spindle savings; bursts are long enough that the requests
    // queued behind its recovery ramp stay below 1% of the cycle.
    {
        FamilyOutcome fam;
        fam.name = "square";
        fam.sloMs = 170.0;
        const std::uint32_t cycles = smoke ? 1 : 3;
        const workload::Trace trace =
            squareWaveTrace(cycles, 60.0, 3.0, 150.0, 140.0);
        const power::GovernorParams gov =
            governorParams(fam.sloMs, 0.5, 0.2);
        for (std::uint32_t rpm : kRpmPoints)
            fam.statics.push_back(
                runSquare(systemFor(env, rpm, false, gov), trace));
        fam.governed =
            runSquare(systemFor(env, 7200, true, gov), trace);
        reportFamily(report, table, fam, governor_ok,
                     best_savings_pct);

        // Dynamic-horizon engine parity: a governed run is the
        // membership-visible control case — every decision tick caps
        // the horizon, so each RPM shift lands at a serial
        // synchronization point. The engine must reproduce the
        // serial governed run to the byte at every worker count.
        pdes_matches = true;
        for (int w : {1, 4, 8}) {
            core::SystemConfig pc = systemFor(env, 7200, true, gov);
            pc.pdesWorkers = w;
            const PointResult r = runSquare(pc, trace);
            pdes_matches = pdes_matches &&
                r.p99Ms == fam.governed.p99Ms &&
                r.energyJ == fam.governed.energyJ &&
                r.completions == fam.governed.completions;
        }
        report.add("pdes_governed_matches_serial",
                   pdes_matches ? 1.0 : 0.0, "bool");
    }

    // ---- closed loop ------------------------------------------
    // A saturated closed population: 16 workers with 50 ms think
    // time keep the member near full utilisation, so the governor's
    // correct move is to do nothing — it must match static 7200's
    // energy (no-harm under sustained load), while every reduced-RPM
    // static blows the p90 SLO.
    {
        FamilyOutcome fam;
        fam.name = "closed";
        fam.sloMs = 110.0;
        const double horizon_s = smoke ? 40.0 : 120.0;
        const power::GovernorParams gov =
            governorParams(fam.sloMs, 0.5, 0.2);
        for (std::uint32_t rpm : kRpmPoints)
            fam.statics.push_back(
                runClosed(systemFor(env, rpm, false, gov), horizon_s));
        fam.governed =
            runClosed(systemFor(env, 7200, true, gov), horizon_s);
        reportFamily(report, table, fam, governor_ok,
                     best_savings_pct);
    }

    // ---- serving diurnal --------------------------------------
    // Deep day/night sinusoid around 70 IOPS (amplitude 0.85): the
    // night trough idles near 10 IOPS — where the governor banks
    // reduced-RPM and parked-arm residency — while the daytime peak
    // (~130 IOPS) is where the static points separate. The family's
    // tail metric (worst-decile snapshot p99) is evaluated against
    // an SLO only static 7200 clears at the peak. The tight 0.25
    // guard stops mid-slope descents whose recovery ramp would land
    // at high load; the busy threshold races the governor back up
    // on the morning slope well before the reduced speed saturates.
    {
        FamilyOutcome fam;
        fam.name = "diurnal";
        fam.sloMs = 165.0;
        const std::uint64_t tenants = smoke ? 2000 : 20000;
        const double duration_s = smoke ? 120.0 : 240.0;
        power::GovernorParams gov =
            governorParams(fam.sloMs, 0.55, 0.4, 0.25, 2500.0);
        // A 1 s evidence window: at 100 ms the busy/p99 estimate
        // rests on fewer than ten Poisson arrivals, and one sparse
        // window mid-slope reads as "underloaded" — the governor
        // then descends at 90 IOPS and pays a recovery ramp whose
        // queue pollutes the tail for the next minute. Bursts here
        // last seconds, not milliseconds, so the slower reaction
        // costs nothing.
        gov.windowMs = 1000.0;
        // Two-point level table: one ramp down per night, one ramp
        // up per morning. A staircase would pay three transition
        // stalls each way for spindle states the sinusoid crosses in
        // seconds anyway.
        gov.rpmLevels = {7200, 4200};
        // Keep both arms loaded: a one-armed member at 4200 sits at
        // ~75% utilisation on the evening shoulder — degraded but
        // under every trigger. The 0.35 W of servo-hold is noise
        // next to the ~4 W spindle delta the night already banks.
        gov.parkKeepArms = 0;
        for (std::uint32_t rpm : kRpmPoints)
            fam.statics.push_back(
                runDiurnal(systemFor(env, rpm, false, gov), tenants,
                           70.0, duration_s));
        fam.governed = runDiurnal(systemFor(env, 7200, true, gov),
                                  tenants, 70.0, duration_s);
        reportFamily(report, table, fam, governor_ok,
                     best_savings_pct);
    }

    table.print(std::cout);

    const std::uint64_t steady_allocs = governorSteadyAllocs();
    report.add("governor_steady_allocs",
               static_cast<double>(steady_allocs), "allocs");
    report.add("governor_ok", governor_ok ? 1.0 : 0.0, "bool");
    report.add("best_energy_savings_pct", best_savings_pct, "%");

    const std::string path = report.write(env.benchOut);
    std::cout << "\ngovernor at iso-SLO: "
              << (governor_ok ? "never worse than best static"
                              : "WORSE than best static")
              << "; best savings: "
              << stats::fmt(best_savings_pct, 1)
              << "%; control-path steady allocs: " << steady_allocs
              << "; engine matches serial: "
              << (pdes_matches ? "yes" : "NO") << "\nreport: " << path
              << '\n';
    return (governor_ok && pdes_matches && steady_allocs == 0) ? 0
                                                               : 1;
}
