#include "core/run.hh"

#include "sim/logging.hh"

namespace idp {
namespace core {

Run::Run(const SystemConfig &config,
         array::LogicalCompletionFn on_complete)
{
    const bool closed_loop = on_complete != nullptr;
    if (telemetry::kCompiledIn && config.tracing.enabled &&
        !closed_loop) {
        registry_.emplace();
        tracer_.emplace(config.tracing);
        registryScope_.emplace(&*registry_);
        traceScope_.emplace(&*tracer_);
    }
    if (verify::kCompiledIn && config.checkInvariants &&
        verify::activeChecker() == nullptr) {
        checker_.emplace();
        verifyScope_.emplace(&*checker_);
    }
    if (config.pdesWorkers > 0 && !closed_loop) {
        pdes_ = std::make_unique<exec::PdesRun>(
            config.array, static_cast<unsigned>(config.pdesWorkers),
            config.tracing);
        sim_ = &pdes_->coordSim();
    }
    array_.emplace(*sim_, config.array, std::move(on_complete),
                   pdes_.get());
    if (pdes_)
        pdes_->setArray(&*array_);
}

void
Run::drain()
{
    if (pdes_) {
        pdes_->run();
        endTick_ = pdes_->endTick();
    } else {
        sim_->run();
        endTick_ = sim_->now();
    }
    sim::simAssert(array_->idle(), "run: array not drained");
    if (checker_)
        checker_->finalize();
}

std::vector<telemetry::MetricSample>
Run::metrics()
{
    if (!registry_)
        return {};
    // Event-kernel health gauges join the module counters. Under PDES
    // they aggregate over every calendar: the totals differ from the
    // serial single-calendar numbers by the replay/delivery mechanics
    // (and deliberately so) — module counters and every statistic are
    // mode-independent.
    registry_->setGauge(
        "sim.events_fired",
        static_cast<double>(pdes_ ? pdes_->eventsFired()
                                  : serialSim_.eventsFired()));
    registry_->setGauge(
        "sim.peak_pending",
        static_cast<double>(pdes_ ? pdes_->peakPending()
                                  : serialSim_.peakPending()));
    registry_->setGauge(
        "sim.events_cancelled",
        static_cast<double>(pdes_ ? pdes_->eventsCancelled()
                                  : serialSim_.eventsCancelled()));
    if (pdes_) {
        registry_->setGauge("sim.pdes_rounds",
                            static_cast<double>(pdes_->rounds()));
        registry_->setGauge("sim.pdes_serial_steps",
                            static_cast<double>(pdes_->serialSteps()));
        // Median horizon width (log2 bucket midpoint) tells at a
        // glance whether the dynamic bounds are opening useful
        // windows or collapsing to serial steps.
        const std::uint64_t *hist = pdes_->horizonWidthHist();
        std::uint64_t total = 0;
        for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b)
            total += hist[b];
        if (total != 0) {
            std::uint64_t seen = 0;
            std::size_t median = 0;
            for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets;
                 ++b) {
                seen += hist[b];
                if (seen * 2 >= total) {
                    median = b;
                    break;
                }
            }
            registry_->setGauge("sim.pdes_horizon_log2_median",
                                static_cast<double>(median));
        }
    }
    return registry_->snapshot();
}

std::shared_ptr<const telemetry::TraceData>
Run::trace() const
{
    if (!tracer_)
        return nullptr;
    return std::make_shared<const telemetry::TraceData>(
        pdes_ ? pdes_->mergedTrace(*tracer_) : tracer_->finish());
}

} // namespace core
} // namespace idp
