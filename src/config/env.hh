/**
 * @file
 * The environment knobs: every IDP_* variable the repo reads, in one
 * table, and the one resolver that reads them. They say how a run
 * executes, never what it models: that comes only from a bench's or
 * example's source, or idpsim's INI file.
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
 * the accepted form. So does an IDP_* name outside the table.
 *
 * README.md's "Environment variables" table lists the same names
 * (checked by EnvTable.ReadmeListsEveryKnob).
 */

#ifndef IDP_CONFIG_ENV_HH
#define IDP_CONFIG_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/ini.hh"
#include "core/experiment.hh"
#include "exec/fork_join.hh"
#include "sim/logging.hh"
#include "verify/verify.hh"

namespace idp {
namespace config {

/** Everything the environment set, parsed. */
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

    /** A bench's request count: IDP_REQUESTS when set, otherwise
     *  @p default_requests times IDP_SCALE (scale floored at 0.01),
     *  never below 1000. */
    std::uint64_t benchRequests(std::uint64_t default_requests) const;

    /** Intra-run PDES workers for a run: 0 (serial) unless IDP_PDES,
     *  then IDP_PDES_WORKERS, defaulting to threads. */
    unsigned pdesWorkerCount() const;

    /** Set the run's execution fields — pdesWorkers, tracing and the
     *  checker switch — and nothing it models. A run mode set
     *  explicitly after apply wins. */
    void apply(core::SystemConfig &config) const;
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
 * Resolve "NAME=value" entries: a bad value, or an IDP_* name outside
 * the table, is fatal (sim::fatal, naming the variable); other names
 * are ignored. Pure: tests pass their own entries.
 */
Env resolveEnv(const std::vector<std::string> &entries);

/** Resolve the process environment — the repo's only environment
 *  read. Mains, bench support code and tests call it; library code
 *  does not. */
Env resolveEnv();

} // namespace config
} // namespace idp

#endif // IDP_CONFIG_ENV_HH
