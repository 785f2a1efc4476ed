#include "sched/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace idp {
namespace sched {

namespace {

/** Distance helper. */
std::uint32_t
cylDistance(std::uint32_t a, std::uint32_t b)
{
    return a > b ? a - b : b - a;
}

/** Nearest idle arm to @p cylinder (by cylinder distance). */
std::uint32_t
nearestArm(const std::vector<ArmView> &arms, std::uint32_t cylinder)
{
    std::uint32_t best = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t i = 0; i < arms.size(); ++i) {
        const std::uint32_t d = cylDistance(arms[i].cylinder, cylinder);
        if (d < best_dist) {
            best_dist = d;
            best = i;
        }
    }
    return best;
}

/** Cheapest idle arm for @p req under the positioning oracle. */
std::uint32_t
cheapestArm(const PendingView &req, const std::vector<ArmView> &arms,
            const PositioningFn &cost)
{
    std::uint32_t best = 0;
    sim::Tick best_cost = std::numeric_limits<sim::Tick>::max();
    for (std::uint32_t i = 0; i < arms.size(); ++i) {
        const sim::Tick c = cost(req, arms[i]);
        if (c < best_cost) {
            best_cost = c;
            best = i;
        }
    }
    return best;
}

/** Exhaustive SSTF pick: minimum (distance, window order, arm). */
Choice
pickSstf(const std::vector<PendingView> &pending,
         const std::vector<ArmView> &arms)
{
    std::size_t best_req = 0;
    std::uint32_t best_arm = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t r = 0; r < pending.size(); ++r) {
        const std::uint32_t a = nearestArm(arms, pending[r].cylinder);
        const std::uint32_t d =
            cylDistance(arms[a].cylinder, pending[r].cylinder);
        if (d < best_dist) {
            best_dist = d;
            best_req = r;
            best_arm = a;
        }
    }
    return {pending[best_req].slot, arms[best_arm].index};
}

/** Exhaustive C-LOOK request pick against @p sweep (window index). */
std::size_t
pickClookRequest(const std::vector<PendingView> &pending,
                 std::uint32_t sweep)
{
    std::size_t best = pending.size();
    std::size_t lowest = 0;
    for (std::size_t r = 0; r < pending.size(); ++r) {
        if (pending[r].cylinder < pending[lowest].cylinder)
            lowest = r;
        if (pending[r].cylinder < sweep)
            continue;
        if (best == pending.size() ||
            pending[r].cylinder < pending[best].cylinder)
            best = r;
    }
    return best == pending.size() ? lowest : best;
}

/** Exhaustive SPTF pick: minimum (aged cost, window order, arm). */
Choice
pickSptf(const std::vector<PendingView> &pending,
         const std::vector<ArmView> &arms, const PositioningFn &cost,
         sim::Tick now, double aging_weight)
{
    std::size_t best_req = 0;
    std::uint32_t best_arm = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < pending.size(); ++r) {
        for (std::uint32_t a = 0; a < arms.size(); ++a) {
            const sim::Tick position = cost(pending[r], arms[a]);
            const double wait = static_cast<double>(
                now - std::min(now, pending[r].arrival));
            const double eff =
                static_cast<double>(position) - aging_weight * wait;
            if (eff < best_cost) {
                best_cost = eff;
                best_req = r;
                best_arm = a;
            }
        }
    }
    return {pending[best_req].slot, arms[best_arm].index};
}

class FcfsScheduler : public IoScheduler
{
  public:
    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick /*now*/) override
    {
        work_ = {pending.size() + arms.size()};
        // Oldest request; cheapest arm for it.
        std::size_t oldest = 0;
        for (std::size_t i = 1; i < pending.size(); ++i)
            if (pending[i].arrival < pending[oldest].arrival)
                oldest = i;
        const std::uint32_t arm =
            cheapestArm(pending[oldest], arms, cost);
        return {pending[oldest].slot, arms[arm].index};
    }
};

class SstfScheduler : public IoScheduler
{
  public:
    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms,
           const PositioningFn & /*cost*/, sim::Tick /*now*/) override
    {
        work_ = {pending.size() * arms.size()};
        return pickSstf(pending, arms);
    }
};

class ClookScheduler : public IoScheduler
{
  public:
    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick /*now*/) override
    {
        work_ = {pending.size() + arms.size()};
        // One-directional sweep: service the lowest cylinder at or
        // above the sweep position; wrap to the minimum when none.
        const std::size_t best = pickClookRequest(pending, sweep_);
        sweep_ = pending[best].cylinder;
        const std::uint32_t arm = cheapestArm(pending[best], arms, cost);
        return {pending[best].slot, arms[arm].index};
    }

  private:
    std::uint32_t sweep_ = 0;
};

class SptfScheduler : public IoScheduler
{
  public:
    explicit SptfScheduler(double aging_weight = 0.0)
        : agingWeight_(aging_weight)
    {
    }

    Choice
    select(const std::vector<PendingView> &pending,
           const std::vector<ArmView> &arms, const PositioningFn &cost,
           sim::Tick now) override
    {
        work_ = {pending.size() * arms.size()};
        return pickSptf(pending, arms, cost, now, agingWeight_);
    }

  private:
    double agingWeight_;
};

} // namespace

Policy
policyFromString(const std::string &name)
{
    if (name == "fcfs")
        return Policy::Fcfs;
    if (name == "sstf")
        return Policy::Sstf;
    if (name == "clook")
        return Policy::Clook;
    if (name == "sptf")
        return Policy::Sptf;
    if (name == "sptf-aged")
        return Policy::SptfAged;
    sim::fatal("unknown scheduling policy: " + name);
}

std::string
policyToString(Policy policy)
{
    switch (policy) {
      case Policy::Fcfs:
        return "fcfs";
      case Policy::Sstf:
        return "sstf";
      case Policy::Clook:
        return "clook";
      case Policy::Sptf:
        return "sptf";
      case Policy::SptfAged:
        return "sptf-aged";
    }
    sim::panic("policyToString: bad enum");
}

std::unique_ptr<IoScheduler>
makeScheduler(const SchedulerParams &params)
{
    std::unique_ptr<IoScheduler> sched;
    switch (params.policy) {
      case Policy::Fcfs:
        sched = std::make_unique<FcfsScheduler>();
        break;
      case Policy::Sstf:
        sched = std::make_unique<SstfScheduler>();
        break;
      case Policy::Clook:
        sched = std::make_unique<ClookScheduler>();
        break;
      case Policy::Sptf:
        sched = std::make_unique<SptfScheduler>(0.0);
        break;
      case Policy::SptfAged:
        sched = std::make_unique<SptfScheduler>(params.agingWeight);
        break;
    }
    if (sched == nullptr)
        sim::panic("makeScheduler: bad enum");
    return sched;
}

} // namespace sched
} // namespace idp
