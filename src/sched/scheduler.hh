/**
 * @file
 * Disk request schedulers.
 *
 * The paper's intra-disk parallel drive uses Shortest-Positioning-Time
 * -First (SPTF, Worthington et al. [42]) extended over (request, arm)
 * pairs: with multiple actuators the scheduler picks whichever idle
 * arm assembly minimizes the overall positioning time for whichever
 * pending request. FCFS, SSTF and C-LOOK are provided as baselines and
 * for the scheduling ablation bench.
 *
 * Schedulers are deliberately decoupled from the drive model: the
 * drive materializes a bounded window of pending requests and the set
 * of currently idle arms, and supplies a positioning oracle that
 * prices any (request, arm) pair. Schedulers only choose.
 */

#ifndef IDP_SCHED_SCHEDULER_HH
#define IDP_SCHED_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geom/geometry.hh"
#include "sim/types.hh"

namespace idp {
namespace sched {

/** Scheduler-visible view of one pending request. */
struct PendingView
{
    std::uint32_t slot = 0; ///< opaque handle the drive understands
    geom::Lba lba = 0;
    std::uint32_t cylinder = 0;
    sim::Tick arrival = 0;
    bool isRead = true;
};

/** Scheduler-visible view of one idle arm assembly. */
struct ArmView
{
    std::uint32_t index = 0;
    std::uint32_t cylinder = 0;
    double azimuth = 0.0; ///< chassis angle, revolutions
};

/** Cost oracle: positioning ticks for servicing @p req with @p arm. */
using PositioningFn =
    std::function<sim::Tick(const PendingView &, const ArmView &)>;

/** A scheduling decision. */
struct Choice
{
    std::uint32_t slot = 0; ///< chosen request handle
    std::uint32_t arm = 0;  ///< chosen arm index
};

/** Per-selection work: the candidates the policy priced/compared. */
struct SelectWork
{
    std::uint64_t priced = 0;
};

/** Available scheduling policies. */
enum class Policy
{
    Fcfs,     ///< first-come first-served; nearest idle arm
    Sstf,     ///< shortest seek time first
    Clook,    ///< circular LOOK elevator
    Sptf,     ///< shortest positioning time first (the paper's choice)
    SptfAged, ///< SPTF with linear aging to bound starvation
};

/** Parse/format policy names ("fcfs", "sstf", "clook", "sptf", ...). */
Policy policyFromString(const std::string &name);
std::string policyToString(Policy policy);

/**
 * Abstract scheduler. One instance per drive (policies may be
 * stateful, e.g. C-LOOK's sweep position).
 */
class IoScheduler
{
  public:
    virtual ~IoScheduler() = default;

    /**
     * Choose a (request, arm) pair.
     *
     * @param pending  non-empty window of pending requests
     * @param arms     non-empty set of currently idle arms
     * @param cost     positioning oracle
     * @param now      current simulated time
     */
    virtual Choice select(const std::vector<PendingView> &pending,
                          const std::vector<ArmView> &arms,
                          const PositioningFn &cost, sim::Tick now) = 0;

    /**
     * Work accounting for the most recent select(); the drive adds it
     * to its own DriveStats after each selection. FCFS and C-LOOK
     * scan the window once and then price the chosen request's arms
     * (pending + arms), SSTF and SPTF the full (request, arm) cross
     * product.
     */
    SelectWork lastWork() const { return work_; }

  protected:
    SelectWork work_;
};

/** Scheduler construction options. */
struct SchedulerParams
{
    Policy policy = Policy::Sptf;
    /**
     * Aging weight for SptfAged: the effective cost of a request is
     * positioning - agingWeight * queue_wait. Expressed as a pure
     * ratio of ticks per tick of waiting.
     */
    double agingWeight = 0.01;
};

/** Factory. */
std::unique_ptr<IoScheduler> makeScheduler(const SchedulerParams &params);

} // namespace sched
} // namespace idp

#endif // IDP_SCHED_SCHEDULER_HH
