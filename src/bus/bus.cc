#include "bus/bus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace idp {
namespace bus {

Bus::Bus(sim::Simulator &simul, const BusParams &params)
    : sim_(simul), params_(params)
{
    sim::simAssert(params.bandwidthMBps > 0.0,
                   "bus: bandwidth must be positive");
    sim::simAssert(params.channels >= 1, "bus: needs a channel");
    sim::simAssert(params.perTransferOverheadMs >= 0.0,
                   "bus: negative overhead");
    channelFreeAt_.assign(params.channels, 0);
    counts_.expose(telemetry::activeRegistry(),
                   {{"bus.transfers", &stats_.transfers},
                    {"bus.bytes_moved", &stats_.bytesMoved}});
}

sim::Tick
Bus::minTransferTicks(const BusParams &params, std::uint64_t bytes)
{
    const double secs =
        static_cast<double>(bytes) / (params.bandwidthMBps * 1e6);
    return sim::secondsToTicks(secs) +
        sim::msToTicks(params.perTransferOverheadMs);
}

sim::Tick
Bus::transferTicks(std::uint64_t bytes) const
{
    return minTransferTicks(params_, bytes);
}

sim::Tick
Bus::transferBooked(std::uint64_t bytes, std::uint64_t request_id)
{
    const sim::Tick now = sim_.now();
    // Least-backlogged channel; FIFO within the channel falls out of
    // the monotone free-at bookkeeping.
    auto it = std::min_element(channelFreeAt_.begin(),
                               channelFreeAt_.end());
    const sim::Tick start = std::max(now, *it);
    const sim::Tick duration = transferTicks(bytes);
    const sim::Tick end = start + duration;
    *it = end;

    ++stats_.transfers;
    stats_.bytesMoved += bytes;
    stats_.busyTicks += duration;
    stats_.queueTicks += start - now;
    // Span covers channel wait plus the movement itself.
    telemetry::emitSpan(request_id, telemetry::SpanKind::Bus, now, end);
    return end;
}

double
Bus::utilization() const
{
    const sim::Tick horizon = sim_.now();
    if (horizon == 0)
        return 0.0;
    return static_cast<double>(stats_.busyTicks) /
        static_cast<double>(horizon * params_.channels);
}

} // namespace bus
} // namespace idp
