/**
 * @file
 * Datacenter provisioning under a p99 SLO (serving mode).
 *
 * The paper's batch experiments answer "how fast is this array"; a
 * provisioner asks the converse: "how many tenants can this array
 * serve before it stops meeting the latency objective?" This bench
 * sweeps tenant count over two four-disk RAID-0 arrays —
 *
 *   conventional   4x HC-SD (7200 RPM, one arm assembly)
 *   SA(4)@4200     4x HC-SD-SA(4) at 4200 RPM (four assemblies, the
 *                  paper's power-optimal operating point)
 *
 * — through the src/serve ServiceLoop (closed/open tenant mix, token
 * buckets, in-flight cap, speculative readahead) and reports the
 * tenant count at which each array first misses the p99 SLO, with
 * power. Two audit legs pin the serving layer's memory discipline:
 *
 *   million-session leg  the top rung re-run with allocation
 *     counting: allocations per admitted request must stay bounded
 *     (the array's per-request join/verify bookkeeping), independent
 *     of tenant count.
 *   deny-storm leg  a bucket starved to always-deny runs twice at
 *     different durations; the allocation-count difference isolates
 *     the serving loop's own steady-state paths (wheel, buckets,
 *     wakes, snapshots) and must be exactly zero.
 *
 * Emits BENCH_serve.json for the perf-trajectory harness. Smoke mode
 * (IDP_BENCH_SMOKE=1) scales tenants and simulated time down for CI.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "config/env.hh"
#include "core/experiment.hh"
#include "disk/drive_config.hh"
#include "serve/service_loop.hh"
#include "sim/rng.hh"
#include "stats/table.hh"

int
main()
{
    using namespace idp;

    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    const bool smoke = env.benchSmoke;

    // The serving scenario: long exponential think times so the
    // offered load per tenant is small and the SLO break point falls
    // inside a tenant ladder reaching one million sessions.
    serve::ServeParams base;
    base.openFraction = 0.05;
    base.readFraction = 0.7;
    base.minSectors = 8;
    base.maxSectors = 64;
    base.slo.p99TargetMs = 120.0;
    base.modulation.diurnalPeriodSec = 20.0;
    base.modulation.diurnalAmplitude = 0.25;
    base.modulation.burstPeriodSec = 7.0;
    base.modulation.burstDurationSec = 1.0;
    base.modulation.burstMultiplier = 2.0;

    std::vector<std::uint64_t> ladder;
    if (smoke) {
        ladder = {500, 1000, 2000, 4000, 8000};
        base.thinkMs = 4000.0;
        base.openRatePerSec = 1.0 / 4.0;
        base.durationSeconds = 8.0;
        base.warmupSeconds = 2.0;
        base.wheelGranularityMs = 5.0;
    } else {
        ladder = {50000, 100000, 200000, 400000, 1000000};
        base.thinkMs = 400000.0; // ~6.7 min mean think
        base.openRatePerSec = 1.0 / 400.0;
        base.durationSeconds = 30.0;
        base.warmupSeconds = 5.0;
        base.wheelGranularityMs = 100.0;
    }

    const disk::DriveSpec conv = disk::barracudaEs750();
    const disk::DriveSpec sa4 = disk::withRpm(
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4), 4200);
    core::SystemConfig systems[] = {
        core::makeRaid0System("4x HC-SD", conv, 4),
        core::makeRaid0System("4x HC-SD-SA(4)@4200", sa4, 4),
    };
    for (core::SystemConfig &system : systems)
        env.apply(system);

    std::cout << "=== Datacenter provisioning: tenants vs p99 SLO "
                 "(serving mode) ===\n"
              << "tenant ladder:";
    for (std::uint64_t t : ladder)
        std::cout << ' ' << t;
    std::cout << "; p99 SLO " << stats::fmt(base.slo.p99TargetMs, 0)
              << " ms; " << stats::fmt(base.durationSeconds, 0)
              << " s simulated per point\n\n";

    std::vector<serve::ServePoint> points;
    for (const core::SystemConfig &sys : systems) {
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            serve::ServePoint pt;
            pt.config = sys;
            pt.params = base;
            pt.params.tenants = ladder[i];
            pt.params.seed =
                sim::streamSeed(0x5E12EBA5E, points.size());
            points.push_back(std::move(pt));
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::ServeResult> runs =
        serve::runServePoints(points, env.threads);
    const auto t1 = std::chrono::steady_clock::now();
    const double sweep_secs =
        std::chrono::duration<double>(t1 - t0).count();

    benchjson::BenchReport report("serve");
    report.add("serve_points", static_cast<double>(points.size()),
               "points");
    report.add("serve_points_per_sec",
               static_cast<double>(points.size()) / sweep_secs,
               "points/s");

    // Per-system: report every rung, find the break point (first rung
    // missing the SLO) and the power at the largest passing rung.
    serve::ServeTotals spec_totals;
    std::uint64_t kernel_stale = 0;
    std::size_t next = 0;
    for (std::size_t s = 0; s < 2; ++s) {
        stats::TextTable table(std::string("Serving capacity: ") +
                               systems[s].name);
        table.setHeader({"Tenants", "p99(ms)", "steady p99", "SLO",
                         "deny%", "completions", "Power(W)"});
        std::uint64_t break_tenants = 0;
        double power_at_pass = 0.0;
        double p99_first = 0.0;
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            const serve::ServeResult &r = runs[next++];
            if (i == 0)
                p99_first = r.steadyP99Ms;
            if (!r.sloMet && break_tenants == 0)
                break_tenants = r.tenants;
            if (r.sloMet)
                power_at_pass = r.power.totalAvgW();
            table.addRow(
                {std::to_string(r.tenants),
                 stats::fmt(r.p99Ms, 1), stats::fmt(r.steadyP99Ms, 1),
                 r.sloMet ? "met" : "MISS",
                 stats::fmt(100.0 * r.denyFraction, 1),
                 std::to_string(r.totals.completions),
                 stats::fmt(r.power.totalAvgW(), 1)});
            spec_totals.specArmed += r.totals.specArmed;
            spec_totals.specSubmitted += r.totals.specSubmitted;
            spec_totals.specCancelledLive += r.totals.specCancelledLive;
            spec_totals.specCancelledStale +=
                r.totals.specCancelledStale;
            spec_totals.specSuppressed += r.totals.specSuppressed;
            kernel_stale += r.staleCancels;
        }
        table.print(std::cout);
        // "Never broke" is reported as one rung past the ladder top,
        // so the metric stays monotone and nonzero for diffing.
        const std::uint64_t break_metric =
            break_tenants ? break_tenants : 2 * ladder.back();
        std::cout << "  first SLO miss: "
                  << (break_tenants ? std::to_string(break_tenants)
                                    : std::string("none (> ") +
                             std::to_string(ladder.back()) + ")")
                  << " tenants\n\n";
        const char *tag = s == 0 ? "conventional" : "sa4";
        report.add(std::string("break_tenants_") + tag,
                   static_cast<double>(break_metric), "tenants");
        report.add(std::string("power_w_") + tag, power_at_pass, "W");
        report.add(std::string("steady_p99_ms_first_rung_") + tag,
                   p99_first, "ms");
    }

    // Speculative-submission accounting across the whole ladder. The
    // identities below (checked in CI) are the cancel path's seal:
    // every armed id is cancelled exactly once — live if it had not
    // fired, stale if it had — and every fired one either submitted
    // or was suppressed.
    report.add("spec_armed_total",
               static_cast<double>(spec_totals.specArmed), "events");
    report.add("spec_submitted_total",
               static_cast<double>(spec_totals.specSubmitted),
               "requests");
    report.add("spec_cancel_live_total",
               static_cast<double>(spec_totals.specCancelledLive),
               "cancels");
    report.add("spec_cancel_stale_total",
               static_cast<double>(spec_totals.specCancelledStale),
               "cancels");
    report.add("spec_suppressed_total",
               static_cast<double>(spec_totals.specSuppressed),
               "events");
    report.add("kernel_stale_cancels",
               static_cast<double>(kernel_stale), "cancels");

    // Million-session leg: the top rung re-run serially with the
    // allocation counter around it. The request path allocates
    // nothing (the array's join ledger and the checker's are flat id
    // tables, callbacks sit inline in the calendar), so what remains
    // is the run's fixed set-up spread over its admitted requests,
    // with zero contribution that scales with tenant count (sessions
    // are flat, the wheel is intrusive).
    {
        serve::ServeParams p = base;
        p.tenants = ladder.back();
        p.seed = 0xA110CA7E;
        const std::uint64_t a0 = benchjson::allocCount();
        const serve::ServeResult r = serve::runService(systems[1], p);
        const std::uint64_t allocs = benchjson::allocCount() - a0;
        const double per_request = r.totals.admitted
            ? static_cast<double>(allocs) /
                static_cast<double>(r.totals.admitted)
            : 0.0;
        std::cout << "million-session leg: " << p.tenants
                  << " tenants, " << r.totals.admitted
                  << " admitted, "
                  << stats::fmt(per_request, 2)
                  << " allocs/request, peak pending events "
                  << r.peakPendingEvents << "\n";
        report.add("million_tenants",
                   static_cast<double>(p.tenants), "tenants");
        report.add("million_completions",
                   static_cast<double>(r.totals.completions),
                   "requests");
        report.add("million_allocs_per_request", per_request,
                   "allocs/request");
        report.add("million_peak_pending",
                   static_cast<double>(r.peakPendingEvents), "events");
        report.add("session_bytes",
                   static_cast<double>(sizeof(serve::TenantSession)),
                   "bytes");
    }

    // Deny-storm leg: starve the token bucket so every wake is denied
    // and nothing reaches the array, then run the same configuration
    // at two durations. The allocation-count difference is exactly
    // the serving loop's steady-state cost — wheel inserts/drains,
    // bucket refills, retry backoffs, the final snapshot — and must
    // be zero: every container is pre-sized.
    {
        serve::ServeParams p = base;
        p.tenants = smoke ? 2000 : 20000;
        p.openFraction = 0.0;
        p.thinkMs = 200.0;
        p.denyRetryMs = 200.0;
        p.maxThinkMs = 1000.0;
        p.wheelGranularityMs = 1.0;
        p.admission.bucket.ratePerSec = 1e-9;
        p.admission.bucket.burst = 0.5; // below one token: always deny
        p.spec.enabled = false;
        p.snapshotPeriodMs = 0.0; // only the final row
        p.warmupSeconds = 1.0;
        p.seed = 0xDE2135;

        auto denyRun = [&](double seconds) {
            serve::ServeParams q = p;
            q.durationSeconds = seconds;
            const std::uint64_t a0 = benchjson::allocCount();
            const serve::ServeResult r =
                serve::runService(systems[0], q);
            const std::uint64_t allocs = benchjson::allocCount() - a0;
            return std::make_pair(allocs, r.totals.arrivals);
        };
        const auto short_run = denyRun(smoke ? 4.0 : 6.0);
        const auto long_run = denyRun(smoke ? 8.0 : 12.0);
        const double steady_allocs = static_cast<double>(
            long_run.first) - static_cast<double>(short_run.first);
        const std::uint64_t extra_wakes =
            long_run.second - short_run.second;
        std::cout << "deny-storm leg: " << extra_wakes
                  << " extra denied wakes cost "
                  << stats::fmt(steady_allocs, 0)
                  << " allocations (must be 0)\n\n";
        report.add("deny_steady_allocs", steady_allocs, "allocs");
        report.add("deny_extra_wakes",
                   static_cast<double>(extra_wakes), "wakes");
    }

    report.write(env.benchOut);

    if (!env.csvDir.empty()) {
        const std::string path = env.csvDir + "/serve_snapshots.csv";
        std::ofstream os(path);
        serve::writeServeSnapshotsCsv(os, runs);
        std::cout << "wrote " << path << "\n";
    }

    std::cout << "Paper check: the intra-disk parallel array serves "
                 "more tenants inside the\nsame p99 objective at "
                 "lower spindle speed, so provisioned power per "
                 "tenant drops.\n";
    return 0;
}
