#include "core/experiment.hh"

#include "core/run.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace idp {
namespace core {

namespace {

/**
 * Incremental trace feed, so the calendar holds one arrival at a time
 * even for multi-million-request traces. Each arrival event captures
 * only the feed's address and sits inline in the calendar slab; a
 * copied std::function (whose captures outgrow its small buffer)
 * would cost a heap allocation per arrival.
 */
struct TraceFeed
{
    const workload::Trace &trace;
    sim::Simulator &simul;
    array::StorageArray &arr;
    std::size_t next = 0;

    void
    fire()
    {
        const workload::IoRequest &req = trace[next];
        ++next;
        // Schedule the next arrival first, then submit: same-tick
        // events keep their scheduling order.
        if (next < trace.size())
            simul.schedule(trace[next].arrival, [this] { fire(); });
        arr.submit(req);
    }
};

} // namespace

std::uint64_t
traceDeviceSectors(const workload::WorkloadModel &model)
{
    return static_cast<std::uint64_t>(model.capacityGB * 1e9 /
                                      geom::kSectorBytes);
}

SystemConfig
makeMdSystem(workload::Commercial kind)
{
    const auto &model = workload::workloadModel(kind);
    SystemConfig config;
    config.name = "MD";
    config.array.layout = array::Layout::PassThrough;
    config.array.disks = model.disks;
    config.array.drive = disk::enterpriseDrive(
        model.capacityGB, model.rpm, model.platters);
    return config;
}

SystemConfig
makeHcsdSystem(workload::Commercial kind)
{
    const auto &model = workload::workloadModel(kind);
    SystemConfig config;
    config.name = "HC-SD";
    config.array.layout = array::Layout::Concat;
    config.array.disks = 1;
    config.array.drive = disk::barracudaEs750();
    config.array.deviceSectors.assign(model.disks,
                                      traceDeviceSectors(model));
    return config;
}

SystemConfig
makeSaSystem(workload::Commercial kind, std::uint32_t actuators,
             std::uint32_t rpm)
{
    SystemConfig config = makeHcsdSystem(kind);
    disk::DriveSpec drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), actuators);
    if (rpm != drive.rpm)
        drive = disk::withRpm(drive, rpm);
    config.array.drive = drive;
    config.name = drive.name;
    return config;
}

SystemConfig
makeRaid0System(const std::string &name, const disk::DriveSpec &drive,
                std::uint32_t disks, std::uint32_t stripe_sectors)
{
    SystemConfig config;
    config.name = name;
    config.array.layout = disks == 1 ? array::Layout::Concat
                                     : array::Layout::Raid0;
    config.array.disks = disks;
    config.array.drive = drive;
    config.array.stripeSectors = stripe_sectors;
    if (disks == 1) {
        // Degenerate single-drive "array": whole disk as one device.
        config.array.deviceSectors.clear();
    }
    return config;
}

RunResult
runTrace(const workload::Trace &trace, const SystemConfig &config)
{
    sim::simAssert(!trace.empty(), "runTrace: empty trace");

    Run run(config);
    array::StorageArray &arr = run.array();
    TraceFeed feed{trace, run.sim(), arr};
    run.sim().schedule(trace.front().arrival, [&feed] { feed.fire(); });
    run.drain();
    sim::simAssert(arr.stats().logicalCompletions == trace.size(),
                   "runTrace: lost requests");

    RunResult result;
    result.system = config.name;
    result.requests = trace.size();
    result.completions = arr.stats().logicalCompletions;
    result.wallSeconds = sim::ticksToSeconds(run.endTick());
    result.responseHist = arr.stats().responseHist;
    result.rotHist = arr.stats().rotHist;
    result.meanResponseMs = arr.stats().responseMs.mean();
    result.p90ResponseMs = arr.stats().responseMs.p90();
    result.p99ResponseMs = arr.stats().responseMs.p99();
    result.meanRotMs = arr.stats().rotMs.mean();
    result.power = arr.finishPower();

    std::uint64_t nonzero = 0;
    for (std::uint32_t i = 0; i < arr.diskCount(); ++i) {
        const auto &ds = arr.diskAt(i).stats();
        result.cacheHits += ds.cacheHits;
        result.mediaAccesses += ds.mediaAccesses;
        result.mediaRetries += ds.mediaRetries;
        result.hardErrors += ds.hardErrors;
        nonzero += ds.nonzeroSeeks;
    }
    result.nonzeroSeekFraction = result.mediaAccesses
        ? static_cast<double>(nonzero) /
            static_cast<double>(result.mediaAccesses)
        : 0.0;
    result.throughputIops = result.wallSeconds > 0.0
        ? static_cast<double>(result.completions) / result.wallSeconds
        : 0.0;
    result.metrics = run.metrics();
    result.trace = run.trace();
    return result;
}

} // namespace core
} // namespace idp
