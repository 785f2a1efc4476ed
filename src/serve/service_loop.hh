/**
 * @file
 * Long-lived storage-service mode: the simulator as a serving system.
 *
 * Every other entry point in this repository is a batch experiment —
 * feed a finite trace, drain, report. ServiceLoop instead drives the
 * kernel like a storage front end in production: N tenant sessions
 * (flat state machines, see session.hh) generate an unbounded
 * open/closed-loop request mix with diurnal and burst arrival
 * modulation, admission control decides at the door (per-tenant token
 * buckets + a global in-flight cap), completions feed a sliding
 * p50/p99 window checked against an SLO, and progress is reported as
 * periodic snapshots with delta-since-last-snapshot semantics
 * (telemetry::Registry::snapshotDelta) rather than an end-of-run
 * report. The run ends at a configured simulated wall only because
 * benchmarks must; nothing in the loop depends on an end.
 *
 * Speculative submissions (the Foreactor-motivated interface): a
 * completion may open a sequential phase and arm a readahead batch as
 * cancellable calendar events; a later phase change retracts the
 * whole batch blindly, and the calendar's generation-tagged cancel()
 * sorts live retractions from stale ones exactly.
 *
 * Memory discipline: per-session cost is one flat 72-byte struct.
 * Sessions hold no calendar events while thinking (think wheel), the
 * global in-flight cap bounds queue growth under overload, and every
 * serving-layer container is pre-sized — after warm-up the loop's own
 * paths allocate nothing per wake or per request (pinned by
 * bench/serve_provision's deny-storm leg).
 */

#ifndef IDP_SERVE_SERVICE_LOOP_HH
#define IDP_SERVE_SERVICE_LOOP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "serve/admission.hh"
#include "serve/session.hh"
#include "serve/slo.hh"
#include "workload/modulation.hh"

namespace idp {
namespace serve {

/** Speculative-readahead behaviour. */
struct SpecParams
{
    bool enabled = true;
    /** Submissions armed per batch (<= kSpecBatchMax). */
    std::uint32_t batch = 3;
    /** Stagger between armed submissions, ms. */
    double aheadMs = 3.0;
    /** P(a closed-loop completion opens a sequential phase). */
    double startProb = 0.2;
    /** P(the next wake is a phase change retracting the batch). */
    double retractProb = 0.5;
    /** Outstanding speculative requests cap (readahead never grows
     *  the backlog past this). */
    std::uint32_t maxOutstanding = 64;
};

/** Everything a serving run is parameterized by. */
struct ServeParams
{
    std::uint64_t tenants = 10000;
    /** Fraction of sessions driven open-loop (the rest are closed). */
    double openFraction = 0.1;
    /** Baseline per-open-tenant arrival rate, requests/sec (scaled by
     *  the modulation factor). */
    double openRatePerSec = 0.02;
    /** Closed-loop mean think time, ms (exponential). */
    double thinkMs = 10000.0;
    /** Think-time clamp; 0 = 4x thinkMs. Also sizes the wheel. */
    double maxThinkMs = 0.0;
    /** Denied closed-loop retry backoff mean, ms; 0 = thinkMs. */
    double denyRetryMs = 0.0;

    double readFraction = 0.7;
    std::uint32_t minSectors = 8;
    std::uint32_t maxSectors = 64;

    workload::RateModulationParams modulation;
    AdmissionParams admission;
    SloParams slo;
    SpecParams spec;

    /** Simulated seconds before measurement starts (steady-state
     *  classification; the SLO window restarts here). */
    double warmupSeconds = 5.0;
    /** Simulated seconds until arrivals stop (in-flight work then
     *  drains). */
    double durationSeconds = 30.0;
    /** Snapshot period, ms; 0 = only the final snapshot. */
    double snapshotPeriodMs = 1000.0;
    /** Attach registry snapshotDelta() rows to each snapshot (costs
     *  per-snapshot allocations; off for alloc-audited runs). */
    bool captureMetricDeltas = false;

    /** Think-wheel slot width, ms. */
    double wheelGranularityMs = 1.0;

    std::uint64_t seed = 0x5EAE5EED;
};

/** One periodic snapshot row. All count fields are deltas since the
 *  previous snapshot; gauges are point-in-time. */
struct ServeSnapshot
{
    std::uint32_t index = 0;
    double simSeconds = 0.0;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t denied = 0;
    std::uint64_t completions = 0;
    std::uint64_t specSubmitted = 0;
    std::uint64_t specCancelledLive = 0;
    std::uint64_t specCancelledStale = 0;
    /** Point-in-time: outstanding foreground requests. */
    std::uint64_t inFlight = 0;
    /** Point-in-time: sessions parked in the think wheel. */
    std::uint64_t wheelScheduled = 0;
    /** Sliding-window quantiles at snapshot time. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    bool sloOk = true;
    /** Modulation factor at snapshot time. */
    double loadFactor = 1.0;
    /** Registry delta rows (captureMetricDeltas only). */
    std::vector<telemetry::MetricSample> metricDelta;
};

/** Whole-run counters (cumulative, not deltas). */
struct ServeTotals
{
    std::uint64_t arrivals = 0; ///< admission decisions taken
    std::uint64_t admitted = 0;
    std::uint64_t deniedBucket = 0;
    std::uint64_t deniedInFlight = 0;
    std::uint64_t completions = 0;
    std::uint64_t specArmed = 0;
    std::uint64_t specSubmitted = 0;
    std::uint64_t specCancelledLive = 0;
    std::uint64_t specCancelledStale = 0;
    std::uint64_t specSuppressed = 0; ///< stopped/capped before issue
    std::uint64_t specCompleted = 0;

    std::uint64_t denied() const
    {
        return deniedBucket + deniedInFlight;
    }
};

/** Results of one serving run. */
struct ServeResult
{
    std::string system;
    std::uint64_t tenants = 0;
    ServeTotals totals;
    /** Simulated seconds actually covered (duration + drain). */
    double simSeconds = 0.0;
    /** Final sliding-window quantiles. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** Median of post-warm-up snapshot p99s — the number the
     *  provisioning scenario compares against the SLO. */
    double steadyP99Ms = 0.0;
    bool sloMet = false;
    double denyFraction = 0.0;
    /** Kernel cancel accounting (speculative retraction exercise). */
    std::uint64_t eventsCancelled = 0;
    std::uint64_t staleCancels = 0;
    std::size_t peakPendingEvents = 0;
    power::PowerBreakdown power;
    std::vector<ServeSnapshot> snapshots;
};

/** Run one serving point to completion. */
ServeResult runService(const core::SystemConfig &config,
                       const ServeParams &params);

/** A serving sweep point. */
struct ServePoint
{
    core::SystemConfig config;
    ServeParams params;
};

/**
 * Run every point, fanned across @p threads sweep workers; result i
 * in slot i, byte-identical at any thread count (each point is a
 * self-seeded serial simulation).
 */
std::vector<ServeResult>
runServePoints(const std::vector<ServePoint> &points, unsigned threads);

/** Write snapshot rows for any number of runs as one flat CSV. */
void writeServeSnapshotsCsv(std::ostream &os,
                            const std::vector<ServeResult> &results);

} // namespace serve
} // namespace idp

#endif // IDP_SERVE_SERVICE_LOOP_HH
