/**
 * @file
 * Scheduler tests: policy selection behaviour on synthetic windows,
 * SPTF optimality against brute force, C-LOOK sweep order, aging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "sched/scheduler.hh"

namespace {

using namespace idp;
using namespace idp::sched;

PendingView
pv(std::uint32_t slot, std::uint32_t cylinder, sim::Tick arrival = 0,
   geom::Lba lba = 0)
{
    PendingView v;
    v.slot = slot;
    v.cylinder = cylinder;
    v.arrival = arrival;
    v.lba = lba;
    return v;
}

/** Oracle pricing |cylinder - arm.cylinder| (1 tick per cylinder). */
sim::Tick
cylinderOracle(const PendingView &r, const ArmView &a)
{
    return r.cylinder > a.cylinder ? r.cylinder - a.cylinder
                                   : a.cylinder - r.cylinder;
}

TEST(PolicyNames, RoundTrip)
{
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged})
        EXPECT_EQ(policyFromString(policyToString(p)), p);
}

TEST(Fcfs, PicksOldest)
{
    auto s = makeScheduler({Policy::Fcfs, 0.0});
    std::vector<PendingView> pending = {pv(0, 100, 50), pv(1, 5, 10),
                                        pv(2, 900, 30)};
    std::vector<ArmView> arms = {{0, 0, 0.0}};
    const Choice c = s->select(pending, arms, cylinderOracle, 100);
    EXPECT_EQ(c.slot, 1u); // arrival 10 is oldest
}

TEST(Fcfs, PicksCheapestArmForOldest)
{
    auto s = makeScheduler({Policy::Fcfs, 0.0});
    std::vector<PendingView> pending = {pv(0, 500, 1)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {3, 450, 0.5}};
    const Choice c = s->select(pending, arms, cylinderOracle, 10);
    EXPECT_EQ(c.arm, 3u);
}

TEST(Sstf, PicksNearestCylinder)
{
    auto s = makeScheduler({Policy::Sstf, 0.0});
    std::vector<PendingView> pending = {pv(0, 100), pv(1, 480),
                                        pv(2, 900)};
    std::vector<ArmView> arms = {{0, 500, 0.0}};
    const Choice c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.slot, 1u);
}

TEST(Sstf, UsesNearestArm)
{
    auto s = makeScheduler({Policy::Sstf, 0.0});
    std::vector<PendingView> pending = {pv(0, 100)};
    std::vector<ArmView> arms = {{0, 900, 0.0}, {1, 120, 0.25}};
    const Choice c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.arm, 1u);
}

TEST(Clook, SweepsUpward)
{
    auto s = makeScheduler({Policy::Clook, 0.0});
    std::vector<ArmView> arms = {{0, 0, 0.0}};
    std::vector<PendingView> pending = {pv(0, 300), pv(1, 100),
                                        pv(2, 200)};
    // Sweep starts at 0: should take 100, then 200, then 300.
    Choice c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.slot, 1u);
    pending = {pv(0, 300), pv(2, 200)};
    c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.slot, 2u);
    pending = {pv(0, 300)};
    c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.slot, 0u);
}

TEST(Clook, WrapsToLowestWhenPastAll)
{
    auto s = makeScheduler({Policy::Clook, 0.0});
    std::vector<ArmView> arms = {{0, 0, 0.0}};
    // Move the sweep position to 500.
    std::vector<PendingView> pending = {pv(0, 500)};
    s->select(pending, arms, cylinderOracle, 0);
    // All remaining requests below the sweep: wrap to the lowest.
    pending = {pv(0, 400), pv(1, 100)};
    const Choice c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.slot, 1u);
}

TEST(Sptf, MatchesBruteForce)
{
    auto s = makeScheduler({Policy::Sptf, 0.0});
    std::vector<PendingView> pending;
    for (std::uint32_t i = 0; i < 16; ++i)
        pending.push_back(pv(i, (i * 613) % 1000));
    std::vector<ArmView> arms = {{0, 250, 0.0}, {1, 750, 0.5}};

    const Choice c = s->select(pending, arms, cylinderOracle, 0);

    sim::Tick best = std::numeric_limits<sim::Tick>::max();
    std::uint32_t best_slot = 0, best_arm = 0;
    for (const auto &r : pending) {
        for (const auto &a : arms) {
            const sim::Tick cost = cylinderOracle(r, a);
            if (cost < best) {
                best = cost;
                best_slot = r.slot;
                best_arm = a.index;
            }
        }
    }
    EXPECT_EQ(c.slot, best_slot);
    EXPECT_EQ(c.arm, best_arm);
}

TEST(Sptf, PrefersSecondArmWhenCloser)
{
    auto s = makeScheduler({Policy::Sptf, 0.0});
    std::vector<PendingView> pending = {pv(0, 700)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {1, 720, 0.5}};
    const Choice c = s->select(pending, arms, cylinderOracle, 0);
    EXPECT_EQ(c.arm, 1u);
}

TEST(SptfAged, OldRequestEventuallyWins)
{
    // With aging, a far-away old request outranks a near new one.
    auto s = makeScheduler({Policy::SptfAged, 1.0});
    std::vector<PendingView> pending = {
        pv(0, 1000, /*arrival=*/0),   // far but ancient
        pv(1, 10, /*arrival=*/99000), // near and fresh
    };
    std::vector<ArmView> arms = {{0, 0, 0.0}};
    const Choice c = s->select(pending, arms, cylinderOracle, 100000);
    EXPECT_EQ(c.slot, 0u);

    // Without aging, the near one wins.
    auto plain = makeScheduler({Policy::Sptf, 0.0});
    const Choice p = plain->select(pending, arms, cylinderOracle,
                                   100000);
    EXPECT_EQ(p.slot, 1u);
}

TEST(Factory, NamesMatch)
{
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged})
        EXPECT_EQ(policyFromString(policyToString(p)), p);
    EXPECT_EQ(policyToString(Policy::Fcfs), "fcfs");
    EXPECT_EQ(policyToString(Policy::Sstf), "sstf");
    EXPECT_EQ(policyToString(Policy::Clook), "clook");
    EXPECT_EQ(policyToString(Policy::Sptf), "sptf");
    EXPECT_EQ(policyToString(Policy::SptfAged), "sptf-aged");
}

TEST(AllPolicies, SingleCandidateAlwaysChosen)
{
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged}) {
        auto s = makeScheduler({p, 0.01});
        std::vector<PendingView> pending = {pv(7, 123, 5)};
        std::vector<ArmView> arms = {{2, 50, 0.0}};
        const Choice c = s->select(pending, arms, cylinderOracle, 10);
        EXPECT_EQ(c.slot, 7u) << policyToString(p);
        EXPECT_EQ(c.arm, 2u) << policyToString(p);
    }
}

/** The work one exhaustive select() over @p pending requests and
 *  @p arms idle arms prices: single-request policies scan the window
 *  once and then price one arm per idle arm (pending + arms); joint
 *  policies compare the full (request, arm) cross product. */
std::uint64_t
nominalWork(Policy p, std::size_t pending, std::size_t arms)
{
    if (p == Policy::Fcfs || p == Policy::Clook)
        return pending + arms;
    return static_cast<std::uint64_t>(pending) * arms;
}

TEST(CandidatesExamined, MatchesEachPolicyScanShape)
{
    std::vector<PendingView> pending;
    for (std::uint32_t i = 0; i < 6; ++i)
        pending.push_back(pv(i, 100 * i + 10, i));
    std::vector<ArmView> arms;
    for (std::uint32_t a = 0; a < 4; ++a)
        arms.push_back({a, 150 * a, 0.0});
    const std::uint64_t want[] = {10, 24, 10, 24, 24};
    std::size_t k = 0;
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged}) {
        auto s = makeScheduler({p, 0.5});
        s->select(pending, arms, cylinderOracle, 10);
        EXPECT_EQ(s->lastWork().priced, want[k]) << policyToString(p);
        ++k;
    }
}

/**
 * Minimal contract-conforming CylinderIndex over a plain vector: one
 * candidate per band at its exact distance (trivially nondecreasing
 * and admissible), FIFO order = vector order. Lets the pruned
 * selectIndexed() paths be exercised against select() without a
 * DiskDrive in the loop.
 */
class VectorIndex : public CylinderIndex
{
  public:
    explicit VectorIndex(std::vector<PendingView> window)
        : window_(std::move(window))
    {
    }

    std::size_t windowSize() const override { return window_.size(); }

    sim::Tick
    seekLowerBound(std::uint32_t dist) const override
    {
        // Identity bound: the synthetic oracle below prices
        // dist + pseudo-rot with pseudo-rot >= 0, so the pure
        // distance is admissible and trivially monotone.
        return dist;
    }

    sim::Tick
    maxQueueWait(sim::Tick now) const override
    {
        sim::Tick max_wait = 0;
        for (const auto &r : window_)
            max_wait = std::max(
                max_wait, now - std::min(now, r.arrival));
        return max_wait;
    }

    void
    beginScan(std::uint32_t cylinder) override
    {
        scanOrder_.clear();
        for (std::uint32_t i = 0; i < window_.size(); ++i)
            scanOrder_.push_back(i);
        std::sort(scanOrder_.begin(), scanOrder_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const std::uint32_t da =
                          dist(window_[a].cylinder, cylinder);
                      const std::uint32_t db =
                          dist(window_[b].cylinder, cylinder);
                      return da != db ? da < db : a < b;
                  });
        scanOrigin_ = cylinder;
        scanPos_ = 0;
    }

    bool
    nextBand(std::uint32_t &min_dist,
             std::vector<IndexedCandidate> &members) override
    {
        if (scanPos_ >= scanOrder_.size())
            return false;
        const std::uint32_t i = scanOrder_[scanPos_++];
        min_dist = dist(window_[i].cylinder, scanOrigin_);
        members.clear();
        members.push_back({window_[i], i});
        ++visited_;
        return true;
    }

    bool
    firstAtOrAbove(std::uint32_t cylinder,
                   IndexedCandidate &out) override
    {
        bool have = false;
        for (std::uint32_t i = 0; i < window_.size(); ++i) {
            ++visited_;
            if (window_[i].cylinder < cylinder)
                continue;
            if (!have || window_[i].cylinder < out.view.cylinder) {
                out = {window_[i], i};
                have = true;
            }
        }
        return have;
    }

    void
    materializeWindow(std::vector<PendingView> &out) const override
    {
        out = window_;
    }

    std::uint64_t visited() const override { return visited_; }

  private:
    static std::uint32_t
    dist(std::uint32_t a, std::uint32_t b)
    {
        return a > b ? a - b : b - a;
    }

    std::vector<PendingView> window_;
    std::vector<std::uint32_t> scanOrder_;
    std::uint32_t scanOrigin_ = 0;
    std::size_t scanPos_ = 0;
    std::uint64_t visited_ = 0;
};

/** Synthetic positioning: distance + deterministic pseudo-rot. */
sim::Tick
pseudoRotOracle(const PendingView &r, const ArmView &a)
{
    const sim::Tick d = cylinderOracle(r, a);
    return d + (r.lba * 13 + a.index * 7) % 29;
}

TEST(LastWork, ExhaustiveSelectReportsNominalWork)
{
    std::vector<PendingView> pending = {pv(0, 10, 1), pv(1, 500, 2),
                                        pv(2, 40, 3)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {1, 300, 0.5}};
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged}) {
        auto s = makeScheduler({p, 0.1});
        s->select(pending, arms, cylinderOracle, 10);
        const SelectWork w = s->lastWork();
        EXPECT_EQ(w.priced, nominalWork(p, 3, 2)) << policyToString(p);
        EXPECT_EQ(w.pruned, 0u) << policyToString(p);
    }
}

TEST(SelectIndexed, MatchesSelectAcrossPoliciesAndWindows)
{
    std::mt19937_64 rng(0xBADC0FFEEULL);
    std::uniform_int_distribution<std::uint32_t> cylDist(0, 9999);
    for (Policy p :
         {Policy::Sstf, Policy::Clook, Policy::Sptf,
          Policy::SptfAged}) {
        // Two scheduler instances fed the same decision sequence so
        // stateful policies (the C-LOOK sweep) stay in lockstep.
        auto plain = makeScheduler({p, 0.002});
        auto pruned = makeScheduler({p, 0.002});
        for (int round = 0; round < 50; ++round) {
            const std::size_t n = 1 + rng() % 64;
            std::vector<PendingView> pending;
            for (std::size_t i = 0; i < n; ++i)
                pending.push_back(
                    pv(static_cast<std::uint32_t>(i), cylDist(rng),
                       /*arrival=*/rng() % 5000,
                       /*lba=*/rng() % 100000));
            std::vector<ArmView> arms;
            const std::size_t na = 1 + rng() % 4;
            for (std::size_t a = 0; a < na; ++a)
                arms.push_back({static_cast<std::uint32_t>(a),
                                cylDist(rng), 0.0});
            const sim::Tick now = 5000 + round * 100;

            const Choice want =
                plain->select(pending, arms, pseudoRotOracle, now);
            VectorIndex index(pending);
            const Choice got = pruned->selectIndexed(
                arms, pseudoRotOracle, now, index);

            ASSERT_EQ(got.slot, want.slot)
                << policyToString(p) << " round " << round;
            ASSERT_EQ(got.arm, want.arm)
                << policyToString(p) << " round " << round;

            // Accounting: priced + pruned covers the nominal scan.
            // (C-LOOK's visited() can exceed the nominal count on a
            // sweep wrap, where firstAtOrAbove scans dry before the
            // wrap's firstAtOrAbove(0) re-examines; the split still
            // holds.)
            const SelectWork w = pruned->lastWork();
            EXPECT_GE(w.priced, 1u)
                << policyToString(p) << " round " << round;
            if (p != Policy::Clook) {
                EXPECT_EQ(w.priced + w.pruned, nominalWork(p, n, na))
                    << policyToString(p) << " round " << round;
                EXPECT_LE(w.priced, nominalWork(p, n, na));
            }
        }
    }
}

TEST(SelectIndexed, SptfPrunesDeepQueues)
{
    // A deep window clustered near the arm: nearly all of it must be
    // excluded by the distance bound without being priced.
    std::vector<PendingView> pending;
    for (std::uint32_t i = 0; i < 256; ++i)
        pending.push_back(pv(i, (i * 37) % 10000, 0, i));
    std::vector<ArmView> arms = {{0, 5000, 0.0}};
    auto s = makeScheduler({Policy::Sptf, 0.0});
    VectorIndex index(pending);
    s->selectIndexed(arms, pseudoRotOracle, 0, index);
    const SelectWork w = s->lastWork();
    EXPECT_EQ(w.priced + w.pruned, 256u);
    // The oracle adds at most 28 ticks of pseudo-rot over the
    // distance bound, so only candidates within 28 cylinders of the
    // best distance can be priced -- a tiny fraction of 256.
    EXPECT_LT(w.priced, 32u);
    EXPECT_GT(w.pruned, 224u);
}

TEST(SelectIndexed, AgedFallsBackWhenCreditCoversFullStroke)
{
    // agingWeight * max wait >= the full-stroke bound: the widened
    // bound can never prune, so the policy must take the exhaustive
    // path and report zero pruned candidates.
    std::vector<PendingView> pending = {
        pv(0, 100, /*arrival=*/0), pv(1, 9000, /*arrival=*/0),
        pv(2, 4000, /*arrival=*/0)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {1, 5000, 0.5}};
    auto aged = makeScheduler({Policy::SptfAged, 10.0});
    auto plain = makeScheduler({Policy::SptfAged, 10.0});
    // The identity bound's full stroke is 2^32 - 1; a wait of 1e9 at
    // weight 10 gives credit 1e10, safely past it.
    const sim::Tick now = 1000000000;

    VectorIndex index(pending);
    const Choice got =
        aged->selectIndexed(arms, pseudoRotOracle, now, index);
    const Choice want =
        plain->select(pending, arms, pseudoRotOracle, now);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.arm, want.arm);
    const SelectWork w = aged->lastWork();
    EXPECT_EQ(w.priced, 6u); // 3 pending x 2 arms, all priced
    EXPECT_EQ(w.pruned, 0u);
}

TEST(Telemetry, PricedAndPrunedCountersSplitCandidatesSeen)
{
    // The drive adds lastWork() to its sched.candidates_priced /
    // _pruned counts; their sum is sched.candidates_seen.
    auto s = makeScheduler({Policy::Sptf, 0.0});
    std::vector<PendingView> pending;
    for (std::uint32_t i = 0; i < 64; ++i)
        pending.push_back(pv(i, (i * 613) % 10000, 0, i));
    std::vector<ArmView> arms = {{0, 2500, 0.0}, {1, 7500, 0.5}};
    VectorIndex index(pending);
    s->selectIndexed(arms, pseudoRotOracle, 0, index);

    const SelectWork w = s->lastWork();
    // 64 pending x 2 arms, the nominal scan.
    EXPECT_EQ(w.priced + w.pruned, 128u);
    EXPECT_GT(w.pruned, 0u);
}

TEST(CandidatesExamined, TelemetryCounterUsesPolicyCount)
{
    // The work a selection reports is the policy's own scan shape,
    // not pending × arms.
    auto s = makeScheduler({Policy::Clook, 0.0});
    std::vector<PendingView> pending = {pv(0, 10), pv(1, 20),
                                        pv(2, 30)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {1, 500, 0.0}};
    for (int k = 0; k < 2; ++k) {
        s->select(pending, arms, cylinderOracle, 0);
        const SelectWork w = s->lastWork();
        EXPECT_EQ(w.priced + w.pruned, 3u + 2u); // pending + arms
    }
}

} // namespace
