/**
 * @file
 * Replica pricing, spare reconstruction, and failure-accounting tests:
 * the positioning-priced RAID-1 read dispatch (and its queue-policy
 * control arm), the RebuildEngine lifecycle for RAID-1 and RAID-5,
 * rate-limit and foreground-yield pacing, the out-of-range sub-request
 * verify violation, and drop-with-accounting for sub-requests caught
 * in flight by failDisk().
 */

#include <gtest/gtest.h>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "telemetry/telemetry.hh"
#include "verify/invariant_checker.hh"
#include "verify/verify.hh"

namespace {

using namespace idp;
using array::ArrayParams;
using array::Layout;
using array::RebuildParams;
using array::ReplicaPolicy;
using disk::DiskDrive;
using disk::DriveSpec;
using disk::ServiceInfo;
using workload::IoRequest;

DriveSpec
smallDrive()
{
    return disk::enterpriseDrive(1.0, 10000, 2);
}

using Harness = test::ArrayRig;

IoRequest
req(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
    bool is_read)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

ArrayParams
raid1(double seek_scale = 1.0)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    p.drive.seekScale = seek_scale;
    return p;
}

ArrayParams
raid5(std::uint32_t disks = 4)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = disks;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    return p;
}

// ------------------------------------------------------------------
// Drive-level positioning price
// ------------------------------------------------------------------

/**
 * The price oracle must see arm positions: a drive whose arm already
 * sits on the target cylinder prices a read strictly cheaper than a
 * cold drive a full stroke away — provided the (scaled) seek exceeds
 * one revolution, since angle-chasing otherwise folds the seek into
 * the same rotational arrival.
 */
TEST(ReplicaPrice, NearbyArmPricesCheaper)
{
    DriveSpec spec = smallDrive();
    spec.seekScale = 5.0; // full-stroke seek >> one revolution
    sim::Simulator simul;
    auto sink = [](const IoRequest &, sim::Tick,
                   const ServiceInfo &) {};
    DiskDrive near(simul, spec, sink);
    DiskDrive far(simul, spec, sink);

    const geom::Lba far_lba = near.geometry().totalSectors() - 64;
    IoRequest r = req(1, far_lba, 8, true);
    simul.schedule(0, [&near, r] { near.submit(r); });
    simul.run();

    // `near` parked its arm at the far cylinder; `far` never moved.
    EXPECT_LT(near.readPriceTicks(far_lba, 8),
              far.readPriceTicks(far_lba, 8));
}

TEST(ReplicaPrice, BacklogRaisesPrice)
{
    sim::Simulator simul;
    auto sink = [](const IoRequest &, sim::Tick,
                   const ServiceInfo &) {};
    DiskDrive drive(simul, smallDrive(), sink);

    sim::Tick idle_price = 0;
    sim::Tick busy_price = 0;
    simul.schedule(0, [&] {
        idle_price = drive.readPriceTicks(5000, 8);
        for (int i = 0; i < 4; ++i)
            drive.submit(req(i, 100000 + 64 * i, 8, true));
        busy_price = drive.readPriceTicks(5000, 8);
    });
    simul.run();
    EXPECT_GT(busy_price, idle_price);
}

// ------------------------------------------------------------------
// RAID-1 replica routing
// ------------------------------------------------------------------

TEST(ReplicaDispatch, CheaperReplicaWinsReads)
{
    // Widely spaced reads in one far region of the disk: the first
    // (cold, symmetric mirrors) ties and round-robins to disk 0,
    // parking its arm there; every later read then prices disk 0
    // strictly cheaper than the never-moved disk 1.
    Harness h(raid1(/*seek_scale=*/4.0));
    const geom::Lba far_lba = h.arr.logicalSectors() - 4096;
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 100 * sim::kTicksPerMs,
                   req(i, far_lba + 64 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 10u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 10u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
}

TEST(ReplicaDispatch, EscapeHatchQueuePolicyRoundRobins)
{
    // Same workload under the legacy policy: queues are empty at
    // every submit, so ties alternate replicas 5/5 — the pre-pricing
    // behaviour the control arm must reproduce.
    ArrayParams p = raid1(/*seek_scale=*/4.0);
    p.replica = ReplicaPolicy::Queue;
    Harness h(p);
    const geom::Lba far_lba = h.arr.logicalSectors() - 4096;
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 100 * sim::kTicksPerMs,
                   req(i, far_lba + 64 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 10u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 5u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 5u);
}

TEST(ReplicaDispatch, FailedReplicaExcludedFromPricing)
{
    Harness h(raid1(/*seek_scale=*/4.0));
    h.arr.failDisk(0);
    const geom::Lba far_lba = h.arr.logicalSectors() - 4096;
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 100 * sim::kTicksPerMs,
                   req(i, far_lba + 64 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 10u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 0u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 10u);
}

// ------------------------------------------------------------------
// Rebuild engine
// ------------------------------------------------------------------

TEST(Rebuild, Raid1CopiesMirrorAndRestoresMember)
{
    Harness h(raid1());
    h.arr.failDisk(0);
    RebuildParams rp;
    rp.chunkSectors = 65536;
    h.arr.startRebuild(0, rp);
    h.simul.run();

    const std::uint64_t sectors = h.arr.logicalSectors();
    const std::uint64_t chunks =
        (sectors + rp.chunkSectors - 1) / rp.chunkSectors;
    ASSERT_NE(h.arr.rebuild(), nullptr);
    const auto &prog = h.arr.rebuild()->progress();
    EXPECT_TRUE(prog.done);
    EXPECT_EQ(prog.chunksTotal, chunks);
    EXPECT_EQ(prog.chunksDone, chunks);
    EXPECT_EQ(prog.readSubs, chunks);    // one mirror read per chunk
    EXPECT_EQ(prog.spareWrites, chunks); // exactly one write per chunk
    EXPECT_DOUBLE_EQ(prog.fraction(), 1.0);
    EXPECT_GT(prog.finishedAt, prog.startedAt);
    EXPECT_FALSE(h.arr.diskFailed(0)); // member rejoined
    // Mirror twin served every read; the spare took every write.
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, chunks);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, chunks);
}

TEST(Rebuild, Raid5ReadsEverySurvivorPerChunk)
{
    Harness h(raid5(4));
    h.arr.failDisk(1);
    RebuildParams rp;
    rp.chunkSectors = 65536;
    h.arr.startRebuild(1, rp);
    h.simul.run();

    const std::uint64_t sectors = h.arr.logicalSectors() / 3;
    const std::uint64_t chunks =
        (sectors + rp.chunkSectors - 1) / rp.chunkSectors;
    const auto &prog = h.arr.rebuild()->progress();
    EXPECT_TRUE(prog.done);
    EXPECT_EQ(prog.chunksDone, chunks);
    // Row-wide XOR: every surviving member is read once per chunk.
    EXPECT_EQ(prog.readSubs, 3 * chunks);
    EXPECT_EQ(prog.spareWrites, chunks);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, chunks);
    EXPECT_EQ(h.arr.diskAt(2).stats().arrivals, chunks);
    EXPECT_EQ(h.arr.diskAt(3).stats().arrivals, chunks);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, chunks);
    EXPECT_FALSE(h.arr.diskFailed(1));
}

TEST(Rebuild, RateLimitStretchesTheWindow)
{
    sim::Tick window[2] = {0, 0};
    const double rates[2] = {0.0, 8.0}; // unthrottled, then 8 MB/s
    for (int v = 0; v < 2; ++v) {
        Harness h(raid1());
        h.arr.failDisk(0);
        RebuildParams rp;
        rp.chunkSectors = 262144;
        rp.rateMBps = rates[v];
        h.arr.startRebuild(0, rp);
        h.simul.run();
        const auto &prog = h.arr.rebuild()->progress();
        EXPECT_TRUE(prog.done);
        window[v] = prog.finishedAt - prog.startedAt;
    }
    EXPECT_GT(window[1], 2 * window[0]);
}

TEST(Rebuild, YieldsToForegroundTraffic)
{
    Harness h(raid1());
    h.arr.failDisk(0);
    RebuildParams rp;
    rp.chunkSectors = 32768;
    rp.yieldDepth = 0; // pause on any survivor foreground backlog
    h.arr.startRebuild(0, rp);

    sim::Rng rng(401);
    const std::uint64_t space = h.arr.logicalSectors() - 8;
    for (int i = 0; i < 500; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   req(i, rng.uniformInt(space), 8, true));
    h.simul.run();

    EXPECT_EQ(h.completions, 500u);
    const auto &prog = h.arr.rebuild()->progress();
    EXPECT_TRUE(prog.done);
    // The saturated survivor forced the sweep to pause repeatedly.
    EXPECT_GT(prog.yields, 0u);
    EXPECT_FALSE(h.arr.diskFailed(0));
}

TEST(Rebuild, ForegroundExactlyOnceHoldsMidRebuild)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);

    Harness h(raid1());
    h.arr.failDisk(0);
    RebuildParams rp;
    rp.chunkSectors = 65536;
    h.arr.startRebuild(0, rp);
    sim::Rng rng(402);
    const std::uint64_t space = h.arr.logicalSectors() - 8;
    for (int i = 0; i < 200; ++i)
        h.submitAt(i * 2 * sim::kTicksPerMs,
                   req(i, rng.uniformInt(space), 8, rng.chance(0.6)));
    h.simul.run();

    EXPECT_EQ(h.completions, 200u);
    EXPECT_TRUE(h.arr.rebuild()->progress().done);
    checker.finalize();
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

TEST(Rebuild, StartRequiresFailedMember)
{
    Harness h(raid1());
    EXPECT_DEATH(h.arr.startRebuild(0, RebuildParams{}), "not failed");
}

// ------------------------------------------------------------------
// failDisk() with sub-requests in flight
// ------------------------------------------------------------------

TEST(FailureAccounting, InFlightSubsDropWithAccounting)
{
    Harness h(raid5(4));
    sim::Rng rng(403);
    const std::uint64_t space = h.arr.logicalSectors() - 8;
    for (int i = 0; i < 60; ++i)
        h.submitAt(i * sim::kTicksPerMs / 2,
                   req(i, rng.uniformInt(space), 8, rng.chance(0.5)));
    // Fail mid-stream, with work queued and in flight on the member.
    h.simul.schedule(10 * sim::kTicksPerMs, [&h] {
        EXPECT_FALSE(h.arr.diskAt(1).idle());
        h.arr.failDisk(1);
    });
    h.simul.run();

    const array::ArrayStats &st = h.arr.stats();
    // Conservation: every logical request completes exactly once...
    EXPECT_EQ(h.completions, 60u);
    EXPECT_EQ(st.logicalCompletions, 60u);
    // ... but completions served by the lost member are dropped with
    // accounting, and their joins contribute no response sample.
    EXPECT_GT(st.droppedSubCompletions, 0u);
    EXPECT_GT(st.taintedJoins, 0u);
    EXPECT_EQ(st.responseMs.count(), 60u - st.taintedJoins);
    EXPECT_EQ(st.responseHist.total(), 60u - st.taintedJoins);
}

TEST(FailureAccounting, MidRunFailureKeepsVerifyClean)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);

    Harness h(raid5(4));
    sim::Rng rng(404);
    const std::uint64_t space = h.arr.logicalSectors() - 8;
    for (int i = 0; i < 60; ++i)
        h.submitAt(i * sim::kTicksPerMs / 2,
                   req(i, rng.uniformInt(space), 8, rng.chance(0.5)));
    h.simul.schedule(10 * sim::kTicksPerMs,
                     [&h] { h.arr.failDisk(1); });
    h.simul.run();

    EXPECT_EQ(h.completions, 60u);
    checker.finalize();
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

// ------------------------------------------------------------------
// Out-of-range sub-requests (the silent-clamp bug)
// ------------------------------------------------------------------

TEST(SubRange, OutOfRangeSubRecordsViolation)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);

    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 1;
    p.drive = smallDrive();
    Harness h(p);
    const std::uint64_t sectors = h.arr.logicalSectors();
    // Straddles the end of the member: 4 of 8 sectors don't exist.
    h.submitAt(0, req(1, sectors - 4, 8, true));
    h.simul.run();

    // The run continues (Record mode pins the access in range), but
    // the lost-data condition is on the record.
    EXPECT_EQ(h.completions, 1u);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations().front().find(
                  "fan-out math lost a request"),
              std::string::npos);
}

TEST(SubRange, MaxStartAccessIsInRange)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);

    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 1;
    p.drive = smallDrive();
    Harness h(p);
    const std::uint64_t sectors = h.arr.logicalSectors();
    // The last valid start: [sectors - 8, sectors). The old modulo
    // clamp relocated even this legal access.
    h.submitAt(0, req(1, sectors - 8, 8, true));
    h.simul.run();

    EXPECT_EQ(h.completions, 1u);
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
}

void
runOutOfRangeUnderPanic()
{
    verify::InvariantChecker checker(verify::FailMode::Panic);
    verify::VerifyScope scope(&checker);
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 1;
    p.drive = smallDrive();
    Harness h(p);
    h.submitAt(0, req(1, h.arr.logicalSectors() - 4, 8, true));
    h.simul.run();
}

TEST(SubRange, OutOfRangeSubPanicsUnderDefaultChecker)
{
    if (!verify::kCompiledIn)
        GTEST_SKIP() << "verify compiled out";
    EXPECT_DEATH(runOutOfRangeUnderPanic(),
                 "fan-out math lost a request");
}

TEST(SubRange, ClampCounterAdvances)
{
    telemetry::Registry registry;
    telemetry::RegistryScope scope(&registry);
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 1;
    p.drive = smallDrive();
    Harness h(p);
    h.submitAt(0, req(1, h.arr.logicalSectors() - 4, 8, true));
    h.simul.run();
    EXPECT_EQ(h.arr.stats().subClamped, 1u);

    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "telemetry compiled out: no registry rows";
    double clamped = -1.0;
    for (const auto &row : registry.snapshot())
        if (row.name == "array.sub_clamped")
            clamped = row.value;
    EXPECT_EQ(clamped, 1.0);
}

} // namespace
