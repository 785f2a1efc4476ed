/**
 * @file
 * The environment knobs: every IDP_* variable the repo reads, in one
 * table, and the one resolver that reads them.
 *
 * Library code reads no environment. A run depends on its arguments
 * only — SystemConfig, ServeParams, RebuildParams, a sweep width —
 * so mains and tests call resolveEnv() once and pass what it resolved
 * into the runs they build: Env::apply for configs, the plain fields
 * below for everything else (sim::setLogThreshold(env.logLevel), the
 * sweep width env.threads, ...).
 *
 * One policy for every value: an unset or empty variable means the
 * row's default. Any other value must parse as the row's kind and
 * fall in its domain (config::ValueKind and ValueDomain, shared with
 * the INI front end), or the process exits naming the variable and
 * the accepted form.
 *
 * README.md's "Environment variables" table lists the same names
 * (checked by EnvTable.ReadmeListsEveryKnob).
 */

#ifndef IDP_CONFIG_ENV_HH
#define IDP_CONFIG_ENV_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "array/rebuild.hh"
#include "config/ini.hh"
#include "core/experiment.hh"
#include "exec/fork_join.hh"
#include "serve/service_loop.hh"
#include "sim/logging.hh"
#include "verify/verify.hh"

namespace idp {
namespace config {

/**
 * Everything the environment set, parsed. Fields that override a
 * configured value are optional: unset keeps the configuration's own.
 */
struct Env
{
    // -- benches, sweeps and tests ------------------------------------
    std::uint64_t requests = 0; ///< IDP_REQUESTS; 0 = each bench's own
    double scale = 1.0;         ///< IDP_SCALE
    unsigned threads = exec::hardwareThreads(); ///< IDP_THREADS
    std::string csvDir;         ///< IDP_CSV_DIR; empty = no CSV export
    std::string benchOut = "."; ///< IDP_BENCH_OUT
    bool benchSmoke = false;    ///< IDP_BENCH_SMOKE
    bool updateGolden = false;  ///< IDP_UPDATE_GOLDEN
    sim::LogLevel logLevel = sim::LogLevel::Warn; ///< IDP_LOG

    // -- every run (apply) ----------------------------------------------
    bool pdes = false;           ///< IDP_PDES
    unsigned pdesWorkers = 0;    ///< IDP_PDES_WORKERS; 0 = threads
    telemetry::TraceOptions tracing; ///< IDP_TRACE, _SAMPLE, _BUF
    bool checkInvariants = verify::kCompiledIn; ///< IDP_VERIFY

    // -- overrides of a configured value (apply) ------------------------
    std::optional<array::ReplicaPolicy> replica; ///< IDP_REPLICA
    std::optional<bool> governor;                ///< IDP_GOVERNOR
    std::optional<double> governorWindowMs;      ///< IDP_GOVERNOR_WINDOW_MS
    std::optional<double> governorSloMs;         ///< IDP_GOVERNOR_SLO_MS
    std::optional<double> governorDwellMs;       ///< IDP_GOVERNOR_DWELL_MS
    std::optional<std::uint32_t> governorPark;   ///< IDP_GOVERNOR_PARK
    std::optional<std::uint32_t> rebuildChunk;   ///< IDP_REBUILD_CHUNK
    std::optional<double> rebuildMBps;           ///< IDP_REBUILD_MBPS
    std::optional<std::size_t> rebuildYield;     ///< IDP_REBUILD_YIELD
    std::optional<std::uint64_t> serveTenants;   ///< IDP_SERVE_TENANTS
    std::optional<double> serveSeconds;          ///< IDP_SERVE_SECONDS
    std::optional<double> serveWarmup;           ///< IDP_SERVE_WARMUP
    std::optional<double> serveThinkMs;          ///< IDP_SERVE_THINK_MS
    std::optional<double> serveOpenFraction; ///< IDP_SERVE_OPEN_FRACTION
    std::optional<double> serveSloP99Ms;         ///< IDP_SERVE_SLO_P99_MS
    std::optional<double> serveSnapshotMs;       ///< IDP_SERVE_SNAPSHOT_MS
    std::optional<std::uint32_t> serveMaxInFlight; ///< IDP_SERVE_MAX_INFLIGHT

    /** A bench's request count: IDP_REQUESTS when set, otherwise
     *  @p default_requests times IDP_SCALE (scale floored at 0.01),
     *  never below 1000. */
    std::uint64_t benchRequests(std::uint64_t default_requests) const;

    /** Intra-run PDES workers for a run: 0 (serial) unless IDP_PDES,
     *  then IDP_PDES_WORKERS, defaulting to threads. */
    unsigned pdesWorkerCount() const;

    /** The array knobs below, plus pdesWorkers, tracing and the
     *  checker switch. Apply before setting any of those three
     *  explicitly: the knobs override the array's own settings, and
     *  an explicit run mode overrides the knobs. */
    void apply(core::SystemConfig &config) const;
    /** Replica policy and governor overrides. */
    void apply(array::ArrayParams &params) const;
    void apply(array::RebuildParams &params) const;
    void apply(serve::ServeParams &params) const;
};

/** One row of the knob table. */
struct EnvVar
{
    const char *name;
    ValueKind kind;
    ValueDomain domain;
    /** Name kind: the accepted names, '|'-separated. */
    const char *names;
    /** The value when unset, as documented. */
    const char *byDefault;
    const char *doc;
    /** Store a value that passed the kind and domain checks: a
     *  count, real or switch (0/1) as @p number; a name or text as
     *  @p text. */
    void (*store)(Env &env, double number, const std::string &text);
};

/** Every IDP_* variable the repo reads, in README order. */
const std::vector<EnvVar> &envTable();

/**
 * Resolve "NAME=value" entries: names outside the table are ignored;
 * a bad value is fatal (sim::fatal, naming the variable and the
 * accepted form). Pure: tests pass their own entries.
 */
Env resolveEnv(const std::vector<std::string> &entries);

/** Resolve the process environment — the repo's only environment
 *  read. Mains, bench support code and tests call it; library code
 *  does not. */
Env resolveEnv();

} // namespace config
} // namespace idp

#endif // IDP_CONFIG_ENV_HH
