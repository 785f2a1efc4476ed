#include "core/experiment.hh"

#include "exec/pdes.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"

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

    // Install the per-run telemetry currents *before* the system is
    // built: modules expose their counts to the registry current at
    // construction.
    std::unique_ptr<telemetry::Registry> registry;
    std::unique_ptr<telemetry::Tracer> tracer;
    std::unique_ptr<telemetry::RegistryScope> registry_scope;
    std::unique_ptr<telemetry::TraceScope> trace_scope;
    if (telemetry::kCompiledIn && config.tracing.enabled) {
        registry = std::make_unique<telemetry::Registry>();
        tracer = std::make_unique<telemetry::Tracer>(config.tracing);
        registry_scope =
            std::make_unique<telemetry::RegistryScope>(registry.get());
        trace_scope =
            std::make_unique<telemetry::TraceScope>(tracer.get());
    }

    // Runtime invariant checking rides along unless the config turns
    // it off (or the build compiled it out). A checker already
    // installed by the caller — tests observing this run — takes
    // precedence.
    std::unique_ptr<verify::InvariantChecker> checker;
    std::unique_ptr<verify::VerifyScope> verify_scope;
    if (verify::kCompiledIn && config.checkInvariants &&
        verify::activeChecker() == nullptr) {
        checker = std::make_unique<verify::InvariantChecker>();
        verify_scope =
            std::make_unique<verify::VerifyScope>(checker.get());
    }

    // Conservative intra-run PDES: opt-in per config. The serial path
    // below stays untouched when disabled.
    std::unique_ptr<exec::PdesRun> prun;
    if (config.pdesWorkers > 0)
        prun = std::make_unique<exec::PdesRun>(
            config.array, static_cast<unsigned>(config.pdesWorkers),
            config.tracing);

    sim::Simulator serial_sim;
    sim::Simulator &simul = prun ? prun->coordSim() : serial_sim;
    array::StorageArray arr(simul, config.array, nullptr, prun.get());
    if (prun)
        prun->setArray(&arr);

    TraceFeed feed{trace, simul, arr};
    simul.schedule(trace.front().arrival, [&feed] { feed.fire(); });
    if (prun)
        prun->run();
    else
        simul.run();
    const sim::Tick end_tick = prun ? prun->endTick() : simul.now();

    sim::simAssert(arr.idle(), "runTrace: array not drained");
    sim::simAssert(arr.stats().logicalCompletions == trace.size(),
                   "runTrace: lost requests");
    if (checker)
        checker->finalize();

    RunResult result;
    result.system = config.name;
    result.requests = trace.size();
    result.completions = arr.stats().logicalCompletions;
    result.wallSeconds = sim::ticksToSeconds(end_tick);
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

    if (registry) {
        // Event-kernel health gauges join the module counters. Under
        // PDES they aggregate over every calendar: the totals differ
        // from the serial single-calendar numbers by the replay/
        // delivery mechanics (and deliberately so) — module counters
        // and all statistics above are mode-independent.
        registry->setGauge(
            "sim.events_fired",
            static_cast<double>(prun ? prun->eventsFired()
                                     : simul.eventsFired()));
        registry->setGauge(
            "sim.peak_pending",
            static_cast<double>(prun ? prun->peakPending()
                                     : simul.peakPending()));
        registry->setGauge(
            "sim.events_cancelled",
            static_cast<double>(prun ? prun->eventsCancelled()
                                     : simul.eventsCancelled()));
        if (prun) {
            registry->setGauge(
                "sim.pdes_rounds",
                static_cast<double>(prun->rounds()));
            registry->setGauge(
                "sim.pdes_serial_steps",
                static_cast<double>(prun->serialSteps()));
            // Median horizon width (log2 bucket midpoint) tells at a
            // glance whether the dynamic bounds are opening useful
            // windows or collapsing to serial steps.
            const std::uint64_t *hist = prun->horizonWidthHist();
            std::uint64_t total = 0;
            for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets;
                 ++b)
                total += hist[b];
            if (total != 0) {
                std::uint64_t seen = 0;
                std::size_t median = 0;
                for (std::size_t b = 0;
                     b < exec::PdesRun::kHorizonBuckets; ++b) {
                    seen += hist[b];
                    if (seen * 2 >= total) {
                        median = b;
                        break;
                    }
                }
                registry->setGauge(
                    "sim.pdes_horizon_log2_median",
                    static_cast<double>(median));
            }
        }
        result.metrics = registry->snapshot();
    }
    if (tracer)
        result.trace = std::make_shared<const telemetry::TraceData>(
            prun ? prun->mergedTrace(*tracer) : tracer->finish());
    return result;
}

} // namespace core
} // namespace idp
