#include "exec/sim_sweep.hh"

#include "exec/fork_join.hh"

namespace idp {
namespace exec {

std::vector<core::RunResult>
runSimPoints(const std::vector<SimPoint> &points, unsigned threads)
{
    return parallelMap(points.size(), threads, [&points](std::size_t i) {
        return core::runTrace(*points[i].trace, points[i].config);
    });
}

std::vector<core::RunResult>
runSystems(const workload::Trace &trace,
           const std::vector<core::SystemConfig> &systems,
           unsigned threads)
{
    return parallelMap(systems.size(), threads, [&](std::size_t i) {
        return core::runTrace(trace, systems[i]);
    });
}

} // namespace exec
} // namespace idp
