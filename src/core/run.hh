/**
 * @file
 * One simulation run's lifecycle, owned in one place.
 *
 * Every driver — runTrace, runClosedLoop, serve::runService, the
 * failure-lifecycle benches and tests — sets a run up the same way,
 * and core::Run is where that happens:
 *
 *   1. the run's tracer and metrics registry go up when
 *      SystemConfig::tracing asks (before the array, because modules
 *      expose their counts to the registry current at construction);
 *   2. a Panic-mode InvariantChecker goes up unless
 *      SystemConfig::checkInvariants is off or a checker is already
 *      current (a test observing the run keeps its own);
 *   3. the serial calendar, or the exec::PdesRun engine when
 *      SystemConfig::pdesWorkers > 0, and the StorageArray on it;
 *   4. drain() runs every calendar dry and finalizes the checker.
 *
 * The caller schedules its workload on sim() and may fail members or
 * start rebuilds on array() before drain(). A run with a completion
 * callback is closed loop: the callback may submit new work, which a
 * PDES window cannot take, so the run is serial; and the driver reads
 * its results from the callback, so the run is untraced (spans still
 * reach a tracer the caller installed).
 *
 *   core::Run run(config);
 *   run.sim().schedule(at, [&run] { run.array().submit(req); });
 *   run.drain();
 *   ... run.array().stats(), run.endTick() ...
 */

#ifndef IDP_CORE_RUN_HH
#define IDP_CORE_RUN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "array/storage_array.hh"
#include "core/experiment.hh"
#include "exec/pdes.hh"
#include "sim/event_queue.hh"
#include "telemetry/registry.hh"
#include "telemetry/tracer.hh"
#include "verify/verify.hh"

namespace idp {
namespace core {

class Run
{
  public:
    /** Set up a run of @p config (see the file comment). A non-null
     *  @p on_complete sees every logical completion and makes the run
     *  serial and untraced. */
    explicit Run(const SystemConfig &config,
                 array::LogicalCompletionFn on_complete = nullptr);

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    /** The calendar the workload schedules on: the serial calendar,
     *  or the PDES coordinator. */
    sim::Simulator &sim() { return *sim_; }

    array::StorageArray &array() { return *array_; }

    /** Run every calendar until it drains, check that the array
     *  ended idle, and finalize the run's checker. Call once. */
    void drain();

    /** The common final tick of every calendar (valid after
     *  drain()). */
    sim::Tick endTick() const { return endTick_; }

    /** The PDES engine, null for a serial run. */
    const exec::PdesRun *pdes() const { return pdes_.get(); }

    /** A traced run's registry snapshot, with the kernel (and PDES)
     *  gauges added; empty when untraced. Call after drain(). */
    std::vector<telemetry::MetricSample> metrics();

    /** A traced run's spans, merged over every calendar; null when
     *  untraced. Call after drain(). */
    std::shared_ptr<const telemetry::TraceData> trace() const;

  private:
    // Declaration order is set-up order: the scopes come down in
    // reverse, after the array and the engine they observed.
    std::optional<telemetry::Registry> registry_;
    std::optional<telemetry::Tracer> tracer_;
    std::optional<telemetry::RegistryScope> registryScope_;
    std::optional<telemetry::TraceScope> traceScope_;
    std::optional<verify::InvariantChecker> checker_;
    std::optional<verify::VerifyScope> verifyScope_;
    std::unique_ptr<exec::PdesRun> pdes_;
    sim::Simulator serialSim_;
    sim::Simulator *sim_ = &serialSim_;
    std::optional<array::StorageArray> array_;
    sim::Tick endTick_ = 0;
};

} // namespace core
} // namespace idp

#endif // IDP_CORE_RUN_HH
