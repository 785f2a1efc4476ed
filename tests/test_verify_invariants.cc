/**
 * @file
 * Tests for the runtime invariant checker itself: seeded violations
 * must be caught (Record mode), clean end-to-end runs must stay
 * silent with the checker hot, and the install/override machinery
 * (VerifyScope nesting, environment gate) must behave.
 */

#include <functional>

#include <gtest/gtest.h>

#include "config/env.hh"
#include "core/closed_loop.hh"
#include "core/experiment.hh"
#include "core/run.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using verify::FailMode;
using verify::InvariantChecker;
using verify::VerifyScope;

// ---------------------------------------------------------------
// Seeded violations: every invariant class must trip in Record mode.
// ---------------------------------------------------------------

TEST(VerifyChecker, CatchesKernelTimeBackwards)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkKernelTime(0, 0, 100);
    // when >= now, so only the monotonicity check (not the firing-
    // before-clock check) trips.
    vc.checkKernelTime(0, 50, 60);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("backwards"), std::string::npos);
}

TEST(VerifyChecker, CatchesEventFiringBeforeClock)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkKernelTime(0, 50, 40);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("clock"), std::string::npos);
}

TEST(VerifyChecker, CatchesCompletionWithoutSubmit)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskComplete(0, 7, 1000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("more times"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesDoubleCompletion)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, 1000, 10);
    EXPECT_TRUE(vc.violations().empty());
    vc.diskComplete(0, 7, 2000, 10);
    ASSERT_EQ(vc.violations().size(), 1u);
}

TEST(VerifyChecker, CatchesCompletionFasterThanMinimumService)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 100, 100);
    vc.diskComplete(0, 7, 150, /*min_service=*/100);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("minimum service"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesSubmitBeforeArrival)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, /*arrival=*/500, /*now=*/400);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("arrival"), std::string::npos);
}

TEST(VerifyChecker, AllowsRaidStyleResubmitOfOneId)
{
    // RAID-5 read-modify-write legitimately sends the same join id to
    // a disk twice (read old, then write new): multiset accounting.
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 7, 0, 0);
    vc.diskComplete(0, 7, 1000, 10);
    vc.diskSubmit(0, 7, 1000, 1000);
    vc.diskComplete(0, 7, 2000, 10);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty());
}

TEST(VerifyChecker, CatchesArmOccupancyMismatch)
{
    InvariantChecker vc(FailMode::Record);
    // 2 in-flight but only 1 busy arm: an access lost its arm.
    vc.checkDiskOccupancy(0, 2, 1, 4, 0, 1, 0, 1);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("busy arms"), std::string::npos);
}

TEST(VerifyChecker, CatchesBudgetOverflows)
{
    InvariantChecker vc(FailMode::Record);
    vc.checkDiskOccupancy(0, 2, 2, 4, /*seeks*/ 2, /*max*/ 1, 0, 1);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("motion budget"),
              std::string::npos);
    vc.checkDiskOccupancy(0, 2, 2, 4, 1, 1, /*xfers*/ 3, /*max*/ 2);
    ASSERT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("channel budget"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesJoinAccountingBugs)
{
    InvariantChecker vc(FailMode::Record);
    vc.arraySplit(1, 0, 0);
    vc.arraySub(1);
    vc.arraySubFinish(1, 100);
    vc.arrayJoin(1, 0, 100);
    EXPECT_TRUE(vc.violations().empty());

    vc.arrayJoin(1, 0, 100); // join id already retired
    ASSERT_EQ(vc.violations().size(), 1u);

    vc.arraySplit(2, 0, 0);
    vc.arraySub(2);
    vc.arrayJoin(2, 0, 50); // one sub still outstanding
    EXPECT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("outstanding"),
              std::string::npos);

    vc.arraySubFinish(3, 10); // no such join
    EXPECT_EQ(vc.violations().size(), 3u);
}

TEST(VerifyChecker, FinalizeCatchesLeakedWork)
{
    InvariantChecker vc(FailMode::Record);
    vc.diskSubmit(0, 1, 0, 0);   // never completes
    vc.arraySplit(9, 0, 0);      // never joins
    vc.finalize();
    // Leaked disk id, submit/completion imbalance, leaked join, and
    // split/join count mismatch all fire.
    EXPECT_EQ(vc.violations().size(), 4u);
}

// The rebuild engine announces chunks 0, 1, 2, ... one at a time, and
// each gets exactly one spare write before the next is announced.

TEST(VerifyChecker, AcceptsAnInOrderRebuild)
{
    InvariantChecker vc(FailMode::Record);
    for (std::uint64_t chunk = 0; chunk < 3; ++chunk) {
        vc.rebuildChunk(chunk);
        vc.rebuildSpareWrite(chunk);
    }
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();
}

TEST(VerifyChecker, CatchesRebuildChunkAnnouncedTwice)
{
    InvariantChecker vc(FailMode::Record);
    vc.rebuildChunk(0);
    vc.rebuildSpareWrite(0);
    vc.rebuildChunk(0);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("chunk 0 reconstructed twice"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesRebuildChunkOutOfOrder)
{
    InvariantChecker vc(FailMode::Record);
    vc.rebuildChunk(0);
    vc.rebuildSpareWrite(0);
    vc.rebuildChunk(2);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("out of order"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesSpareWriteForUnannouncedChunk)
{
    InvariantChecker vc(FailMode::Record);
    vc.rebuildSpareWrite(0);
    ASSERT_EQ(vc.violations().size(), 1u);
    vc.rebuildChunk(0);
    vc.rebuildSpareWrite(1);
    ASSERT_EQ(vc.violations().size(), 2u);
    EXPECT_NE(vc.violations()[1].find("unannounced chunk 1"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesSpareWriteForAClosedChunk)
{
    InvariantChecker vc(FailMode::Record);
    vc.rebuildChunk(0);
    vc.rebuildSpareWrite(0);
    vc.rebuildChunk(1);
    vc.rebuildSpareWrite(0);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("spare write for chunk 0"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesSecondSpareWrite)
{
    InvariantChecker vc(FailMode::Record);
    vc.rebuildChunk(0);
    vc.rebuildSpareWrite(0);
    EXPECT_TRUE(vc.violations().empty());
    vc.rebuildSpareWrite(0);
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("written to the spare 2 times"),
              std::string::npos);
}

TEST(VerifyChecker, CatchesMissingSpareWrite)
{
    // The open chunk's write can still come, so a missing write
    // fails at finalize...
    InvariantChecker open(FailMode::Record);
    open.rebuildChunk(0);
    EXPECT_TRUE(open.violations().empty());
    open.finalize();
    ASSERT_EQ(open.violations().size(), 2u);
    EXPECT_NE(open.violations()[0].find("1 chunks vs 0 spare writes"),
              std::string::npos);
    EXPECT_NE(open.violations()[1].find("chunk 0 saw 0 spare writes"),
              std::string::npos);

    // ...or as soon as the engine moves on to the next chunk.
    InvariantChecker moved_on(FailMode::Record);
    moved_on.rebuildChunk(0);
    moved_on.rebuildChunk(1);
    ASSERT_EQ(moved_on.violations().size(), 1u);
    EXPECT_NE(moved_on.violations()[0].find("chunk 0 saw 0 spare writes"),
              std::string::npos);
}

TEST(VerifyChecker, EveryHookCountsOneObservation)
{
    // observations() sums per-domain, per-drive and coordinator
    // counts: each hook must bump exactly one of them, once.
    InvariantChecker vc(FailMode::Record);
    const stats::ModeTimes idle_books;
    const std::pair<const char *, std::function<void()>> hooks[] = {
        {"checkKernelTime", [&] { vc.checkKernelTime(3, 0, 10); }},
        {"diskSubmit", [&] { vc.diskSubmit(2, 7, 0, 10); }},
        {"diskComplete", [&] { vc.diskComplete(2, 7, 100, 10); }},
        {"checkDiskOccupancy",
         [&] { vc.checkDiskOccupancy(1, 1, 1, 4, 1, 1, 0, 1); }},
        {"checkServiceBound", [&] { vc.checkServiceBound(1, 5, 10); }},
        {"arraySplit", [&] { vc.arraySplit(9, 0, 0); }},
        {"arraySub", [&] { vc.arraySub(9); }},
        {"arraySubFinish", [&] { vc.arraySubFinish(9, 50); }},
        {"arrayJoin", [&] { vc.arrayJoin(9, 0, 50); }},
        {"arraySubRange", [&] { vc.arraySubRange(0, 100, 8, 64); }},
        {"checkModeAccounting",
         [&] { vc.checkModeAccounting(0, idle_books, idle_books, 1); }},
        {"rebuildChunk", [&] { vc.rebuildChunk(0); }},
        {"rebuildSpareWrite", [&] { vc.rebuildSpareWrite(0); }},
    };
    for (const auto &[name, call] : hooks) {
        const std::uint64_t before = vc.observations();
        call();
        EXPECT_EQ(vc.observations(), before + 1) << name;
    }
    // Only arraySubRange reports (it is called on a violation).
    ASSERT_EQ(vc.violations().size(), 1u);
    EXPECT_NE(vc.violations()[0].find("lies beyond"), std::string::npos);
}

TEST(VerifyChecker, PanicModeDiesOnViolation)
{
    EXPECT_DEATH(
        {
            InvariantChecker vc(FailMode::Panic);
            vc.diskComplete(0, 7, 1000, 10);
        },
        "invariant violated");
}

// ---------------------------------------------------------------
// Install machinery.
// ---------------------------------------------------------------

TEST(VerifyScope, NestsAndRestores)
{
    EXPECT_EQ(InvariantChecker::current(), nullptr);
    InvariantChecker outer(FailMode::Record);
    {
        VerifyScope a(&outer);
        EXPECT_EQ(InvariantChecker::current(), &outer);
        InvariantChecker inner(FailMode::Record);
        {
            VerifyScope b(&inner);
            EXPECT_EQ(InvariantChecker::current(), &inner);
        }
        EXPECT_EQ(InvariantChecker::current(), &outer);
    }
    EXPECT_EQ(InvariantChecker::current(), nullptr);
}

TEST(VerifyEnv, GateParsesIdpVerify)
{
    auto gate = [](const std::vector<std::string> &entries) {
        core::SystemConfig system;
        system.checkInvariants = !verify::kCompiledIn;
        config::resolveEnv(entries).apply(system);
        return system.checkInvariants;
    };
    EXPECT_EQ(gate({}), verify::kCompiledIn);
    EXPECT_FALSE(gate({"IDP_VERIFY=0"}));
    EXPECT_FALSE(gate({"IDP_VERIFY=off"}));
    EXPECT_FALSE(gate({"IDP_VERIFY=false"}));
    EXPECT_TRUE(gate({"IDP_VERIFY=1"}));
}

TEST(VerifyEnv, SystemConfigChecksByDefault)
{
    // core::Run — under runTrace, runClosedLoop, runService and the
    // failure benches — installs a checker unless the config turns it
    // off: on by default whenever compiled in.
    EXPECT_EQ(core::SystemConfig{}.checkInvariants, verify::kCompiledIn);
}

/** One small read through @p run, drained. */
void
drainOneRead(core::Run &run)
{
    workload::IoRequest req;
    req.id = 1;
    req.lba = 4096;
    req.sectors = 8;
    run.sim().schedule(0, [&run, req] { run.array().submit(req); });
    run.drain();
}

TEST(RunLifecycle, InstallsAPanicCheckerWhenNoneIsCurrent)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "checker compiled out";
    {
        core::Run run(
            core::makeRaid0System("t", disk::barracudaEs750(), 1));
        const InvariantChecker *vc = InvariantChecker::current();
        ASSERT_NE(vc, nullptr);
        EXPECT_EQ(vc->mode(), FailMode::Panic);
        drainOneRead(run);
        EXPECT_GT(vc->observations(), 0u);
    }
    EXPECT_EQ(InvariantChecker::current(), nullptr);
}

TEST(RunLifecycle, InstallsNoCheckerWhenCheckingIsOff)
{
    core::SystemConfig config =
        core::makeRaid0System("t", disk::barracudaEs750(), 1);
    config.checkInvariants = false;
    core::Run run(config);
    EXPECT_EQ(InvariantChecker::current(), nullptr);
    drainOneRead(run);
}

TEST(RunLifecycle, LeavesAnOuterCheckerInPlace)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "checker compiled out";
    InvariantChecker outer(FailMode::Record);
    VerifyScope scope(&outer);
    {
        core::Run run(
            core::makeRaid0System("t", disk::barracudaEs750(), 4));
        EXPECT_EQ(InvariantChecker::current(), &outer);
        drainOneRead(run);
    }
    EXPECT_EQ(InvariantChecker::current(), &outer);
    outer.finalize();
    EXPECT_TRUE(outer.violations().empty()) << outer.violations().front();
    EXPECT_GT(outer.observations(), 0u);
}

// ---------------------------------------------------------------
// End-to-end: full runs with the checker hot must be silent, and the
// hooks must actually observe the run (liveness).
// ---------------------------------------------------------------

core::RunResult
observedRun(const core::SystemConfig &config, InvariantChecker &vc,
            std::uint64_t requests = 1500)
{
    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = 1.0;
    const workload::Trace trace = generateSynthetic(wp);
    VerifyScope scope(&vc);
    return core::runTrace(trace, config);
}

TEST(VerifyEndToEnd, CleanSingleDiskRunIsSilent)
{
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System(
                    "t", disk::barracudaEs750(), 1),
                vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty())
        << vc.violations().front();
    EXPECT_GT(vc.observations(), 0u);
}

TEST(VerifyEndToEnd, CleanIntraDiskParallelRunIsSilent)
{
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System(
                    "t",
                    disk::makeIntraDiskParallel(
                        disk::barracudaEs750(), 4),
                    1),
                vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty())
        << vc.violations().front();
}

TEST(VerifyEndToEnd, CleanRaidRunsAreSilent)
{
    for (std::uint32_t disks : {4u}) {
        {
            InvariantChecker vc(FailMode::Record);
            observedRun(core::makeRaid0System(
                            "r0", disk::barracudaEs750(), disks),
                        vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid0: " << vc.violations().front();
        }
        core::SystemConfig config = core::makeRaid0System(
            "r", disk::barracudaEs750(), disks);
        {
            config.array.layout = array::Layout::Raid1;
            InvariantChecker vc(FailMode::Record);
            observedRun(config, vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid1: " << vc.violations().front();
        }
        {
            // RAID-5 exercises the deferred-RMW re-arm path.
            config.array.layout = array::Layout::Raid5;
            InvariantChecker vc(FailMode::Record);
            observedRun(config, vc);
            vc.finalize();
            EXPECT_TRUE(vc.violations().empty())
                << "raid5: " << vc.violations().front();
        }
    }
}

TEST(VerifyEndToEnd, CleanFaultyCoalescingDriveIsSilent)
{
    // Retries, coalescing, zero-latency access, and write-back
    // destages all complicate the completion path; none may break
    // conservation.
    disk::DriveSpec spec = disk::barracudaEs750();
    spec.mediaRetryRate = 0.05;
    spec.coalesce = true;
    spec.zeroLatencyAccess = true;
    spec.cache.writeBack = true;
    InvariantChecker vc(FailMode::Record);
    observedRun(core::makeRaid0System("faulty", spec, 1), vc);
    vc.finalize();
    EXPECT_TRUE(vc.violations().empty()) << vc.violations().front();
}

TEST(VerifyEndToEnd, ClosedLoopInstallsItsOwnChecker)
{
    // Panic mode by default: a violation would abort the test.
    core::ClosedLoopParams params;
    params.workers = 8;
    params.horizonSeconds = 1.0;
    const auto result = core::runClosedLoop(
        core::makeRaid0System("cl", disk::barracudaEs750(), 1),
        params);
    EXPECT_GT(result.completions, 0u);
}

TEST(VerifyEndToEnd, RunTraceHonorsCallerInstalledChecker)
{
    // A caller-provided checker must observe the run (runTrace must
    // not shadow it with its own).
    InvariantChecker vc(FailMode::Record);
    const auto run = observedRun(
        core::makeRaid0System("t", disk::barracudaEs750(), 1), vc,
        200);
    EXPECT_EQ(run.completions, 200u);
    EXPECT_GT(vc.observations(), 200u);
}

} // namespace
