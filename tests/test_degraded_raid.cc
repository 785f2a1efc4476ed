/**
 * @file
 * Degraded-mode RAID tests: Raid1 mirror survival, Raid5
 * reconstruction reads and parity-regenerating writes, and the
 * guards on non-redundant layouts.
 */

#include <gtest/gtest.h>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using array::ArrayParams;
using array::Layout;
using array::StorageArray;
using workload::IoRequest;

disk::DriveSpec
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
raid5(std::uint32_t disks = 4)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = disks;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    return p;
}

ArrayParams
raid1()
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    return p;
}

TEST(DegradedRaid1, ReadsServeFromSurvivor)
{
    Harness h(raid1());
    h.arr.failDisk(0);
    EXPECT_TRUE(h.arr.diskFailed(0));
    for (int i = 0; i < 20; ++i)
        h.submitAt(i * 3 * sim::kTicksPerMs,
                   req(i, 1000 + 64 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 20u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 0u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 20u);
}

TEST(DegradedRaid1, WritesSkipFailedReplica)
{
    Harness h(raid1());
    h.arr.failDisk(1);
    for (int i = 0; i < 10; ++i)
        h.submitAt(i * 3 * sim::kTicksPerMs,
                   req(i, 1000 + 64 * i, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions, 10u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 10u);
}

TEST(DegradedRaid1, LosingBothReplicasFatal)
{
    Harness h(raid1());
    h.arr.failDisk(0);
    EXPECT_DEATH(h.arr.failDisk(1), "pair already lost");
}

TEST(DegradedRaid5, ReadReconstructsFromPeers)
{
    Harness h(raid5(4));
    // LBA 0 maps to row 0; its data disk is the first non-parity
    // member. Parity of row 0 sits on disk 0, so data is on disk 1.
    h.arr.failDisk(1);
    h.submitAt(0, req(1, 0, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
    // Reconstruction touches every surviving member: disks 0, 2, 3.
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(2).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(3).stats().arrivals, 1u);
}

TEST(DegradedRaid5, HealthyReadUnaffectedByOtherFailure)
{
    Harness h(raid5(4));
    h.arr.failDisk(3);
    // LBA 0's data lives on disk 1 (parity on 0): still healthy.
    h.submitAt(0, req(1, 0, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 0u);
}

TEST(DegradedRaid5, WriteToLostDataRegeneratesParity)
{
    Harness h(raid5(4));
    h.arr.failDisk(1); // row 0's data member for LBA 0
    h.submitAt(0, req(1, 0, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    // Surviving data members (2, 3) are read; parity (0) is written.
    EXPECT_EQ(h.arr.diskAt(2).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(3).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
}

TEST(DegradedRaid5, WriteWithLostParityIsPlain)
{
    Harness h(raid5(4));
    h.arr.failDisk(0); // row 0's parity member
    h.submitAt(0, req(1, 0, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    // No RMW possible or needed: one plain data write.
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(2).stats().arrivals, 0u);
    EXPECT_EQ(h.arr.diskAt(3).stats().arrivals, 0u);
}

TEST(DegradedRaid5, SecondFailureFatal)
{
    Harness h(raid5(5));
    h.arr.failDisk(2);
    EXPECT_DEATH(h.arr.failDisk(4), "single failure");
}

TEST(DegradedRaid5, MixedLoadDrainsDegraded)
{
    Harness h(raid5(5));
    h.arr.failDisk(1);
    sim::Rng rng(301);
    const std::uint64_t space = h.arr.logicalSectors() - 64;
    for (int i = 0; i < 300; ++i)
        h.submitAt(i * 2 * sim::kTicksPerMs,
                   req(i, rng.uniformInt(space), 8, rng.chance(0.6)));
    h.simul.run();
    EXPECT_EQ(h.completions, 300u);
    EXPECT_TRUE(h.arr.idle());
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
}

TEST(DegradedRaid5, DegradedReadsAreSlower)
{
    // Reconstruction fans a read across n-1 disks and completes at
    // the slowest member: degraded mean response must exceed healthy.
    double means[2];
    for (int v = 0; v < 2; ++v) {
        sim::Simulator simul;
        stats::SampleSet resp;
        StorageArray arr(
            simul, raid5(4),
            [&resp](const IoRequest &r, sim::Tick t) {
                resp.add(sim::ticksToMs(t - r.arrival));
            });
        if (v == 1)
            arr.failDisk(1);
        sim::Rng rng(302);
        const std::uint64_t space = arr.logicalSectors() - 8;
        for (int i = 0; i < 250; ++i) {
            IoRequest r = req(i, rng.uniformInt(space), 8, true);
            r.arrival = i * 4 * sim::kTicksPerMs;
            simul.schedule(r.arrival, [&arr, r] { arr.submit(r); });
        }
        simul.run();
        means[v] = resp.mean();
    }
    EXPECT_GT(means[1], means[0] * 1.1);
}

TEST(DegradedRaid, NonRedundantLayoutsRefuse)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_DEATH(h.arr.failDisk(0), "no redundancy");
}

TEST(DegradedRaid, FailingAFailedMemberIsAConfigError)
{
    Harness h(raid1());
    h.arr.failDisk(0);
    EXPECT_EXIT(h.arr.failDisk(0), ::testing::ExitedWithCode(1),
                "fatal: array: disk 0 is already failed");
}

TEST(DegradedRaid, RebuildingANonRedundantLayoutIsAConfigError)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_EXIT(h.arr.startRebuild(0, array::RebuildParams{}),
                ::testing::ExitedWithCode(1),
                "fatal: array: layout raid0 has no redundancy");
}

} // namespace
