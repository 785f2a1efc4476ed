#include "telemetry/tracer.hh"

#include "sim/logging.hh"

namespace idp {
namespace telemetry {

double
TraceData::meanMs(SpanKind kind) const
{
    const PhaseAccum &accum = phase(kind);
    return accum.count
        ? sim::ticksToMs(accum.ticks) /
            static_cast<double>(accum.count)
        : 0.0;
}

double
TraceData::totalMs(SpanKind kind) const
{
    return sim::ticksToMs(phase(kind).ticks);
}

Tracer::Tracer(const TraceOptions &opts)
    : ring_(opts.ringCapacity),
      sampleEvery_(opts.sampleEvery ? opts.sampleEvery : 1)
{
}

TraceData
Tracer::finish() const
{
    TraceData data;
    data.spans = ring_.snapshot();
    data.dropped = ring_.dropped();
    data.phases = phases_;
    return data;
}

} // namespace telemetry
} // namespace idp
