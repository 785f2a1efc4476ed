/**
 * @file
 * Instrumentation hooks — the only telemetry header module code
 * should include.
 *
 * Compile-time guard: building with IDP_TELEMETRY=0 (cmake
 * -DIDP_TELEMETRY=OFF) turns activeTracer()/activeRegistry() into
 * constexpr nullptr, so every emitSpan() call below folds to nothing
 * and no module exposes its counts — tracing is zero-cost, not merely
 * cheap. With the guard on (the default) the cost of a disabled run
 * is one thread-local load and branch per span hook, bounded by
 * bench/micro_simcore. Counts cost nothing per event either way: the
 * registry reads the modules' own stats fields when it snapshots.
 *
 * Runtime control is per run: core::runTrace installs a Tracer and a
 * Registry for the duration of a run when SystemConfig::tracing asks
 * for it (mains pass IDP_TRACE), and the hooks see them through the
 * thread-local currents.
 */

#ifndef IDP_TELEMETRY_TELEMETRY_HH
#define IDP_TELEMETRY_TELEMETRY_HH

#include "telemetry/registry.hh"
#include "telemetry/span.hh"
#include "telemetry/tracer.hh"

#ifndef IDP_TELEMETRY
#define IDP_TELEMETRY 1
#endif

namespace idp {
namespace telemetry {

#if IDP_TELEMETRY
constexpr bool kCompiledIn = true;

inline Tracer *activeTracer() { return Tracer::current(); }
inline Registry *activeRegistry() { return Registry::current(); }
#else
constexpr bool kCompiledIn = false;

constexpr Tracer *activeTracer() { return nullptr; }
constexpr Registry *activeRegistry() { return nullptr; }
#endif

/** Emit one span if a tracer is active. */
inline void
emitSpan(std::uint64_t id, SpanKind kind, sim::Tick begin,
         sim::Tick end, std::uint32_t dev = 0, std::uint16_t arm = 0)
{
    if (Tracer *tracer = activeTracer()) {
        Span span;
        span.id = id;
        span.kind = kind;
        span.begin = begin;
        span.end = end;
        span.dev = dev;
        span.arm = arm;
        tracer->record(span);
    }
}

/** Zero-duration marker span (scheduling decisions, fan-outs). */
inline void
emitInstant(std::uint64_t id, SpanKind kind, sim::Tick at,
            std::uint32_t dev = 0, std::uint16_t arm = 0)
{
    emitSpan(id, kind, at, at, dev, arm);
}

} // namespace telemetry
} // namespace idp

#endif // IDP_TELEMETRY_TELEMETRY_HH
