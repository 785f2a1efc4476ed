#include "workload/request.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace idp {
namespace workload {

void
validateTrace(const Trace &trace)
{
    sim::Tick prev = 0;
    for (const auto &req : trace) {
        sim::simAssert(req.arrival >= prev,
                       "trace: arrivals must be non-decreasing");
        sim::simAssert(req.sectors > 0, "trace: empty request");
        prev = req.arrival;
    }
}

TraceSummary
summarize(const Trace &trace)
{
    TraceSummary s;
    s.requests = trace.size();
    if (trace.empty())
        return s;
    std::uint32_t max_dev = 0;
    for (const auto &req : trace) {
        if (req.isRead)
            ++s.readRequests;
        s.totalBytes += req.bytes();
        max_dev = std::max<std::uint32_t>(max_dev, req.device);
    }
    s.devices = max_dev + 1;
    const sim::Tick span = trace.back().arrival - trace.front().arrival;
    s.durationSeconds = sim::ticksToSeconds(span);
    s.meanInterArrivalMs = trace.size() > 1
        ? sim::ticksToMs(span) / static_cast<double>(trace.size() - 1)
        : 0.0;
    s.meanSizeKB = static_cast<double>(s.totalBytes) / 1024.0 /
        static_cast<double>(s.requests);
    s.readFraction = static_cast<double>(s.readRequests) /
        static_cast<double>(s.requests);
    return s;
}

} // namespace workload
} // namespace idp
