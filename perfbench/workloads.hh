/**
 * @file
 * The benchmark's three workloads, their seeded inputs, and the direct
 * StorageArray runner they share.
 *
 *   paper_sweep     Figures 5/7 and 8 points fanned over
 *                   exec::runSimPoints (serial event loop per point).
 *   mirror_rebuild  one long RAID-1 run on the serial event loop with
 *                   a member failure and a spare rebuild mid-run (its
 *                   traced pass also runs it under exec::PdesRun).
 *   serve_diurnal   one serve::runService run on a governed RAID-0.
 */

#ifndef IDP_PERFBENCH_WORKLOADS_HH
#define IDP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "core/experiment.hh"
#include "exec/sim_sweep.hh"
#include "harness.hh"
#include "serve/service_loop.hh"
#include "telemetry/registry.hh"
#include "telemetry/tracer.hh"
#include "workload/request.hh"

namespace idp {
namespace perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload end to end (untraced) or as the traced pass. */
Outcome runWorkload(const RunOptions &opts);

// ---------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------

/** Size of the paper_sweep point set. */
struct SweepShape
{
    std::uint64_t commercialRequests = 60000; ///< per commercial trace
    std::uint64_t syntheticRequests = 150000; ///< per synthetic trace
};

/** Traces and points of one paper_sweep run; points borrow the
 *  traces, so the object stays where it was made. */
struct SweepInputs
{
    std::vector<workload::Trace> commercial; ///< one per generator
    std::vector<workload::Trace> synthetic;  ///< 4 ms, then 1 ms
    std::vector<exec::SimPoint> points;
    std::size_t breakEven = 0; ///< 4x SA(4) RAID-0 at 1 ms
    std::uint64_t requests = 0; ///< over all points

    SweepInputs() = default;
    SweepInputs(const SweepInputs &) = delete;
    SweepInputs &operator=(const SweepInputs &) = delete;
};

std::unique_ptr<SweepInputs> makeSweepInputs(std::uint64_t seed,
                                             const SweepShape &shape);

/** Size and load of the mirror_rebuild run. */
struct MirrorShape
{
    std::uint64_t requests = 200000;
    double interArrivalMs = 2.0;
    std::uint32_t disks = 8;
    double memberGB = 1.0;
    /** Member 0 fails this far into the trace's arrival span, and its
     *  rebuild starts rebuildDelayS later. */
    double failAtFraction = 0.2;
    double rebuildDelayS = 1.0;
};

array::ArrayParams mirrorArray(const MirrorShape &shape);

/** The synthetic trace (60% reads, 20% sequential) over
 *  @p logical_sectors of address space. */
workload::Trace makeMirrorTrace(std::uint64_t seed,
                                const MirrorShape &shape,
                                std::uint64_t logical_sectors);

/** Size and load of the serve_diurnal run. */
struct ServeShape
{
    std::uint64_t tenants = 150000;
    double durationS = 1200.0;
};

core::SystemConfig serveSystem();
serve::ServeParams makeServeParams(std::uint64_t seed,
                                   const ServeShape &shape);

// ---------------------------------------------------------------
// Direct StorageArray runs
// ---------------------------------------------------------------

/** A member failure and its rebuild, scheduled before the run. */
struct FailurePlan
{
    bool enabled = false;
    std::uint32_t member = 0;
    sim::Tick failAt = 0;
    sim::Tick rebuildAt = 0;
};

/** Switches of one direct run. */
struct DirectOptions
{
    /** 0 = the serial event loop; > 0 = exec::PdesRun workers. */
    unsigned pdesWorkers = 0;
    bool checker = true;
    bool traced = false;
    FailurePlan failure;
};

/** Everything the benchmark reads back from a direct run. */
struct DirectRun
{
    /** Whole-result digest; identical for serial and PDES runs. */
    std::uint64_t digest = 0;
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t completions = 0;
    bool drained = false;
    std::vector<std::string> violations;

    double loopSeconds = 0.0;    ///< the event loop alone
    std::uint64_t loopAllocs = 0;

    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double meanMs = 0.0;
    std::uint64_t samples = 0;
    power::PowerBreakdown power;
    std::uint64_t taintedJoins = 0;
    std::uint64_t droppedSubs = 0;
    std::uint64_t hardErrors = 0;
    std::uint64_t mediaAccesses = 0;
    std::uint64_t nonzeroSeeks = 0;

    bool rebuildStarted = false;
    array::RebuildProgress rebuild;

    std::uint64_t eventsFired = 0;
    std::uint64_t eventsCancelled = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t pdesRounds = 0;
    std::uint64_t pdesSerialSteps = 0;
    double pdesHorizonLog2Median = 0.0;

    /** Traced runs only. */
    std::vector<telemetry::MetricSample> metrics;
    telemetry::TraceData trace;
};

DirectRun runDirect(const workload::Trace &trace,
                    const array::ArrayParams &params,
                    const DirectOptions &opts);

/** Whole-result digest of a batch run (every public field). */
std::uint64_t digestRunResult(const core::RunResult &r);

/** Whole-result digest of a serving run. */
std::uint64_t digestServeResult(const serve::ServeResult &r);

} // namespace perfbench
} // namespace idp

#endif // IDP_PERFBENCH_WORKLOADS_HH
