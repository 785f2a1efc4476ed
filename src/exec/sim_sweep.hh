/**
 * @file
 * Sweep-engine bridge for the common bench shape: run many
 * (trace, system) simulation points and collect core::RunResult rows.
 *
 * Every bench that used to loop
 *
 *     for (cfg : configs) rows.push_back(core::runTrace(trace, cfg));
 *
 * calls runSystems()/runSimPoints() instead: same rows, same order,
 * fanned across the sweep's cores. Each simulation point is fully
 * deterministic (seeded workloads, per-drive fault RNG in the spec),
 * so the parallel rows are bit-identical to the serial ones.
 */

#ifndef IDP_EXEC_SIM_SWEEP_HH
#define IDP_EXEC_SIM_SWEEP_HH

#include <vector>

#include "core/experiment.hh"

namespace idp {
namespace exec {

/** One simulation point: a trace replayed against a system. */
struct SimPoint
{
    /** Borrowed; must outlive the sweep. Traces are shared read-only
     *  across threads, which is safe — replay never mutates them. */
    const workload::Trace *trace = nullptr;
    core::SystemConfig config;
};

/** Simulate every point on @p threads threads, the caller included
 *  (exec::parallelMap); result i in slot i. */
std::vector<core::RunResult>
runSimPoints(const std::vector<SimPoint> &points, unsigned threads);

/** Common case: each of @p systems against one shared @p trace. */
std::vector<core::RunResult>
runSystems(const workload::Trace &trace,
           const std::vector<core::SystemConfig> &systems,
           unsigned threads);

} // namespace exec
} // namespace idp

#endif // IDP_EXEC_SIM_SWEEP_HH
