#include "config/env.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <type_traits>

namespace idp {
namespace config {

namespace {

template <typename T> struct Unwrap
{
    using type = T;
};
template <typename T> struct Unwrap<std::optional<T>>
{
    using type = T;
};

/** Store a checked value into the Env field @p Field, converted to
 *  the field's type (an optional field becomes set). */
template <auto Field>
void
set(Env &env, double number, const std::string &text)
{
    auto &field = env.*Field;
    using T = std::remove_reference_t<decltype(field)>;
    using V = typename Unwrap<T>::type;
    if constexpr (std::is_same_v<V, std::string>)
        field = text;
    else if constexpr (std::is_same_v<V, bool>)
        field = number != 0.0;
    else
        field = static_cast<V>(number);
}

using K = ValueKind;
using D = ValueDomain;

const std::vector<EnvVar> kTable = {
    {"IDP_REQUESTS", K::Count, D::Positive, nullptr, "each bench's own",
     "requests per bench configuration (overrides IDP_SCALE)",
     set<&Env::requests>},
    {"IDP_SCALE", K::Real, D::Positive, nullptr, "1",
     "multiplier on the default bench request counts (floor 0.01)",
     set<&Env::scale>},
    {"IDP_THREADS", K::Count, D::Positive, nullptr, "hardware threads",
     "sweep worker count (1 = the exact serial path)",
     set<&Env::threads>},
    {"IDP_PDES", K::Switch, D::Any, nullptr, "off",
     "run each simulation under the intra-run PDES engine",
     set<&Env::pdes>},
    {"IDP_PDES_WORKERS", K::Count, D::Positive, nullptr, "IDP_THREADS",
     "PDES worker count, capped at the array's disk count",
     set<&Env::pdesWorkers>},
    {"IDP_CSV_DIR", K::Text, D::Any, nullptr, "no export",
     "benches also export their series as CSV there", set<&Env::csvDir>},
    {"IDP_UPDATE_GOLDEN", K::Switch, D::Any, nullptr, "off",
     "refresh tests/golden/ (determinism tests)",
     set<&Env::updateGolden>},
    {"IDP_TRACE", K::Switch, D::Any, nullptr, "off",
     "per-run span tracing and metrics registry",
     [](Env &e, double v, const std::string &) {
         e.tracing.enabled = v != 0.0;
     }},
    {"IDP_TRACE_SAMPLE", K::Count, D::Positive, nullptr, "1",
     "retain spans of every Nth request (totals stay exact)",
     [](Env &e, double v, const std::string &) {
         e.tracing.sampleEvery = static_cast<std::uint64_t>(v);
     }},
    {"IDP_TRACE_BUF", K::Count, D::Positive, nullptr, "262144",
     "span ring capacity per run",
     [](Env &e, double v, const std::string &) {
         e.tracing.ringCapacity = static_cast<std::size_t>(v);
     }},
    {"IDP_LOG", K::Name, D::Any, "error|warn|info|debug", "warn",
     "log threshold",
     [](Env &e, double, const std::string &t) {
         e.logLevel = sim::logLevelFromString(t);
     }},
    {"IDP_VERIFY", K::Switch, D::Any, nullptr, "on",
     "runtime invariant checker", set<&Env::checkInvariants>},
    {"IDP_REPLICA", K::Name, D::Any, "queue|position|positioning",
     "the array's", "RAID-1 read replica policy",
     [](Env &e, double, const std::string &t) {
         e.replica = t == "queue" ? array::ReplicaPolicy::Queue
                                  : array::ReplicaPolicy::Positioning;
     }},
    {"IDP_REBUILD_CHUNK", K::Count, D::Positive, nullptr, "the rebuild's",
     "rebuild chunk size, sectors", set<&Env::rebuildChunk>},
    {"IDP_REBUILD_MBPS", K::Real, D::NonNegative, nullptr,
     "the rebuild's", "rebuild rate cap, MB/s (0 = unthrottled)",
     set<&Env::rebuildMBps>},
    {"IDP_REBUILD_YIELD", K::Count, D::NonNegative, nullptr,
     "the rebuild's",
     "survivor queue depth at which a rebuild yields to foreground",
     set<&Env::rebuildYield>},
    {"IDP_GOVERNOR", K::Switch, D::Any, nullptr, "the array's",
     "force the online energy governor off or on", set<&Env::governor>},
    {"IDP_GOVERNOR_WINDOW_MS", K::Real, D::Positive, nullptr,
     "the array's", "governor control-loop period, ms",
     set<&Env::governorWindowMs>},
    {"IDP_GOVERNOR_SLO_MS", K::Real, D::Positive, nullptr, "the array's",
     "governor latency SLO on the window p99, ms",
     set<&Env::governorSloMs>},
    {"IDP_GOVERNOR_DWELL_MS", K::Real, D::Positive, nullptr,
     "the array's", "governor minimum dwell between downward steps, ms",
     set<&Env::governorDwellMs>},
    {"IDP_GOVERNOR_PARK", K::Count, D::NonNegative, nullptr,
     "the array's", "arms the governor keeps serviceable when parking",
     set<&Env::governorPark>},
    {"IDP_BENCH_OUT", K::Text, D::Any, nullptr, "working directory",
     "directory for BENCH_*.json perf reports", set<&Env::benchOut>},
    {"IDP_BENCH_SMOKE", K::Switch, D::Any, nullptr, "off",
     "shrink perf-report measurement windows (CI smoke)",
     set<&Env::benchSmoke>},
    {"IDP_SERVE_TENANTS", K::Count, D::Positive, nullptr, "the bench's",
     "serving mode: tenant session count", set<&Env::serveTenants>},
    {"IDP_SERVE_SECONDS", K::Real, D::Positive, nullptr, "the bench's",
     "serving mode: simulated seconds of arrivals per point",
     set<&Env::serveSeconds>},
    {"IDP_SERVE_WARMUP", K::Real, D::NonNegative, nullptr, "the bench's",
     "serving mode: warm-up seconds before steady-state measurement",
     set<&Env::serveWarmup>},
    {"IDP_SERVE_THINK_MS", K::Real, D::Positive, nullptr, "the bench's",
     "serving mode: closed-loop mean think time, ms",
     set<&Env::serveThinkMs>},
    {"IDP_SERVE_OPEN_FRACTION", K::Real, D::Fraction, nullptr,
     "the bench's", "serving mode: fraction of sessions driven open-loop",
     set<&Env::serveOpenFraction>},
    {"IDP_SERVE_SLO_P99_MS", K::Real, D::Positive, nullptr, "the bench's",
     "serving mode: p99 latency objective, ms", set<&Env::serveSloP99Ms>},
    {"IDP_SERVE_SNAPSHOT_MS", K::Real, D::NonNegative, nullptr,
     "the bench's", "serving mode: snapshot period, ms (0 = final only)",
     set<&Env::serveSnapshotMs>},
    {"IDP_SERVE_MAX_INFLIGHT", K::Count, D::NonNegative, nullptr,
     "the bench's",
     "serving mode: global admission in-flight cap (0 = uncapped)",
     set<&Env::serveMaxInFlight>},
};

/** True when @p text is one of @p var's '|'-separated names. */
bool
isName(const EnvVar &var, const std::string &text)
{
    std::istringstream names(var.names);
    std::string name;
    while (std::getline(names, name, '|'))
        if (name == text)
            return true;
    return false;
}

void
resolveOne(Env &env, const EnvVar &var, const std::string &text)
{
    if (text.empty())
        return; // empty = unset = the default
    std::optional<double> number = 0.0; // names and text carry none
    if (var.kind == K::Name && !isName(var, text))
        number.reset();
    else if (var.kind != K::Name && var.kind != K::Text)
        number = parseValue(var.kind, var.domain, text);
    if (!number)
        sim::fatal(std::string(var.name) + ": expected " +
                   acceptedForm(var.kind, var.domain, var.names) +
                   ", got \"" + text + "\"");
    var.store(env, *number, text);
}

} // namespace

const std::vector<EnvVar> &
envTable()
{
    return kTable;
}

Env
resolveEnv(const std::vector<std::string> &entries)
{
    Env env;
    for (const std::string &entry : entries) {
        const std::size_t eq = entry.find('=');
        const std::string name = entry.substr(0, eq);
        const std::string text =
            eq == std::string::npos ? "" : entry.substr(eq + 1);
        for (const EnvVar &var : kTable)
            if (name == var.name)
                resolveOne(env, var, text);
    }
    return env;
}

Env
resolveEnv()
{
    std::vector<std::string> entries;
    for (const EnvVar &var : kTable)
        if (const char *value = std::getenv(var.name))
            entries.push_back(std::string(var.name) + "=" + value);
    return resolveEnv(entries);
}

std::uint64_t
Env::benchRequests(std::uint64_t default_requests) const
{
    if (requests != 0)
        return requests;
    const double scaled = static_cast<double>(default_requests) *
        std::max(scale, 0.01);
    return std::max<std::uint64_t>(1000,
                                   static_cast<std::uint64_t>(scaled));
}

unsigned
Env::pdesWorkerCount() const
{
    if (!pdes)
        return 0;
    return pdesWorkers != 0 ? pdesWorkers : threads;
}

void
Env::apply(core::SystemConfig &config) const
{
    apply(config.array);
    config.pdesWorkers = pdesWorkerCount();
    config.tracing = tracing;
    config.checkInvariants = checkInvariants;
}

void
Env::apply(array::ArrayParams &params) const
{
    if (replica)
        params.replica = *replica;
    power::GovernorParams &g = params.governor;
    g.enabled = governor.value_or(g.enabled);
    g.windowMs = governorWindowMs.value_or(g.windowMs);
    g.sloP99Ms = governorSloMs.value_or(g.sloP99Ms);
    g.minDwellMs = governorDwellMs.value_or(g.minDwellMs);
    g.parkKeepArms = governorPark.value_or(g.parkKeepArms);
}

void
Env::apply(array::RebuildParams &params) const
{
    params.chunkSectors = rebuildChunk.value_or(params.chunkSectors);
    params.rateMBps = rebuildMBps.value_or(params.rateMBps);
    params.yieldDepth = rebuildYield.value_or(params.yieldDepth);
}

void
Env::apply(serve::ServeParams &params) const
{
    params.tenants = serveTenants.value_or(params.tenants);
    params.durationSeconds =
        serveSeconds.value_or(params.durationSeconds);
    params.warmupSeconds = serveWarmup.value_or(params.warmupSeconds);
    params.thinkMs = serveThinkMs.value_or(params.thinkMs);
    params.openFraction =
        serveOpenFraction.value_or(params.openFraction);
    params.slo.p99TargetMs =
        serveSloP99Ms.value_or(params.slo.p99TargetMs);
    params.snapshotPeriodMs =
        serveSnapshotMs.value_or(params.snapshotPeriodMs);
    params.admission.maxInFlight =
        serveMaxInFlight.value_or(params.admission.maxInFlight);
}

} // namespace config
} // namespace idp
