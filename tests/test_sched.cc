/**
 * @file
 * Scheduler tests: policy selection behaviour on synthetic windows,
 * SPTF optimality against brute force, C-LOOK sweep order, aging.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

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

TEST(LastWork, ExhaustiveSelectReportsNominalWork)
{
    std::vector<PendingView> pending = {pv(0, 10, 1), pv(1, 500, 2),
                                        pv(2, 40, 3)};
    std::vector<ArmView> arms = {{0, 0, 0.0}, {1, 300, 0.5}};
    for (Policy p : {Policy::Fcfs, Policy::Sstf, Policy::Clook,
                     Policy::Sptf, Policy::SptfAged}) {
        auto s = makeScheduler({p, 0.1});
        s->select(pending, arms, cylinderOracle, 10);
        EXPECT_EQ(s->lastWork().priced, nominalWork(p, 3, 2))
            << policyToString(p);
    }
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
        EXPECT_EQ(s->lastWork().priced, 3u + 2u); // pending + arms
    }
}

} // namespace
