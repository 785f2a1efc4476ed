#include "config/env.hh"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <type_traits>

extern char **environ;

namespace idp {
namespace config {

namespace {

/** Store a checked value into the Env field @p Field, converted to
 *  the field's type. */
template <auto Field>
void
set(Env &env, double number, const std::string &text)
{
    auto &field = env.*Field;
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>)
        field = text;
    else if constexpr (std::is_same_v<T, bool>)
        field = number != 0.0;
    else
        field = static_cast<T>(number);
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
    {"IDP_BENCH_OUT", K::Text, D::Any, nullptr, "working directory",
     "directory for BENCH_*.json perf reports", set<&Env::benchOut>},
    {"IDP_BENCH_SMOKE", K::Switch, D::Any, nullptr, "off",
     "shrink perf-report measurement windows (CI smoke)",
     set<&Env::benchSmoke>},
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
        const auto var =
            std::find_if(kTable.begin(), kTable.end(),
                         [&](const EnvVar &v) { return name == v.name; });
        if (var != kTable.end())
            resolveOne(env, *var, text);
        else if (name.rfind("IDP_", 0) == 0)
            sim::fatal(name + ": not a knob; README.md's \"Environment "
                       "variables\" table lists every IDP_* variable");
    }
    return env;
}

Env
resolveEnv()
{
    std::vector<std::string> entries;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e)
        if (std::strncmp(*e, "IDP_", 4) == 0)
            entries.emplace_back(*e);
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
    config.pdesWorkers = pdesWorkerCount();
    config.tracing = tracing;
    config.checkInvariants = checkInvariants;
}

} // namespace config
} // namespace idp
