/**
 * @file
 * Storage-array tests: layouts (pass-through, concat, RAID-0/1/5),
 * split/join correctness, power aggregation, which statistics keep
 * samples.
 */

#include <gtest/gtest.h>

#include "array/storage_array.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "verify/verify.hh"

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

/** A striped layout's addressable capacity: whole stripe rows over
 *  @p data data members, plus the partial last row's first r sectors
 *  (r = member sectors mod stripe). */
std::uint64_t
stripedCapacity(std::uint64_t member, std::uint64_t stripe,
                std::uint64_t data)
{
    const std::uint64_t r = member % stripe;
    return (member - r) * data + r;
}

IoRequest
makeReq(std::uint64_t id, std::uint32_t device, geom::Lba lba,
        std::uint32_t sectors, bool is_read)
{
    IoRequest r;
    r.id = id;
    r.device = device;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

TEST(ArrayPassThrough, RoutesByDevice)
{
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 3;
    p.drive = smallDrive();
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 1000, 8, true));
    h.submitAt(0, makeReq(2, 2, 1000, 8, true));
    h.submitAt(0, makeReq(3, 2, 9000, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 3u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 0u);
    EXPECT_EQ(h.arr.diskAt(2).stats().arrivals, 2u);
}

TEST(ArrayPassThrough, LogicalStatsRecorded)
{
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    for (int i = 0; i < 50; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   makeReq(i, i % 2, 512 * i, 8, true));
    h.simul.run();
    EXPECT_EQ(h.arr.stats().logicalArrivals, 50u);
    EXPECT_EQ(h.arr.stats().logicalCompletions, 50u);
    EXPECT_EQ(h.arr.stats().responseHist.total(), 50u);
    EXPECT_TRUE(h.arr.idle());
}

TEST(ArrayConcat, MapsDevicesSequentially)
{
    // Two 0.3 GB traced devices concatenated onto one 1 GB disk.
    ArrayParams p;
    p.layout = Layout::Concat;
    p.disks = 1;
    p.drive = smallDrive();
    const std::uint64_t dev_sectors = 300ULL * 1000 * 1000 / 512;
    p.deviceSectors = {dev_sectors, dev_sectors};
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 100, 8, true));
    h.submitAt(0, makeReq(2, 1, 100, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 2u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 2u);
    EXPECT_EQ(h.arr.logicalSectors(), 2 * dev_sectors);
}

TEST(ArrayConcat, RejectsOversizedDevices)
{
    ArrayParams p;
    p.layout = Layout::Concat;
    p.disks = 1;
    p.drive = smallDrive();
    // 10 GB of traced devices cannot fit a 1 GB disk.
    p.deviceSectors = {10ULL * 1000 * 1000 * 1000 / 512,
                       10ULL * 1000 * 1000 * 1000 / 512};
    sim::Simulator simul;
    EXPECT_DEATH(
        { StorageArray arr(simul, p); },
        "Concat devices exceed disk capacity");
}

TEST(ArrayConcat, RejectsMoreDevicesThan16BitIdsName)
{
    // The check runs before any drive is built, so this is cheap.
    ArrayParams p;
    p.layout = Layout::Concat;
    p.disks = 1;
    p.drive = smallDrive();
    p.deviceSectors.assign(workload::kMaxDevices + 1, 8);
    sim::Simulator simul;
    EXPECT_EXIT({ StorageArray arr(simul, p); },
                ::testing::ExitedWithCode(1),
                "65537 traced devices exceed the 16-bit device id limit");
}

TEST(ArrayRaid0, SplitsAcrossStripeBoundary)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 2;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    Harness h(p);
    // 8 sectors starting 4 before a stripe boundary: spans 2 disks.
    h.submitAt(0, makeReq(1, 0, 12, 8, true));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals +
                  h.arr.diskAt(1).stats().arrivals,
              2u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 1u);
}

TEST(ArrayRaid0, ContainedRequestSingleDisk)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = smallDrive();
    p.stripeSectors = 64;
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 64, 8, true)); // inside stripe 1
    h.simul.run();
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        total += h.arr.diskAt(i).stats().arrivals;
    EXPECT_EQ(total, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 1u);
}

TEST(ArrayRaid0, RoundRobinStripes)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    Harness h(p);
    for (std::uint32_t s = 0; s < 8; ++s)
        h.submitAt(s * sim::kTicksPerMs,
                   makeReq(s, 0, s * 16, 8, true));
    h.simul.run();
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(h.arr.diskAt(i).stats().arrivals, 2u);
}

TEST(ArrayRaid0, LogicalCapacityIsSum)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_EQ(h.arr.logicalSectors(),
              stripedCapacity(h.arr.diskAt(0).geometry().totalSectors(),
                              p.stripeSectors, 4));
}

TEST(ArrayRaid1, WritesGoToBothReplicas)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 1000, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals, 1u);
    EXPECT_EQ(h.arr.diskAt(1).stats().arrivals, 1u);
}

TEST(ArrayRaid1, ReadsUseOneReplica)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 1000, 8, true));
    h.simul.run();
    EXPECT_EQ(h.arr.diskAt(0).stats().arrivals +
                  h.arr.diskAt(1).stats().arrivals,
              1u);
}

TEST(ArrayRaid1, ReadsSpreadOverReplicas)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    for (int i = 0; i < 40; ++i)
        h.submitAt(0, makeReq(i, 0, 1000 + 8 * i, 8, true));
    h.simul.run();
    // Queue-depth steering must use both replicas for a burst.
    EXPECT_GT(h.arr.diskAt(0).stats().arrivals, 5u);
    EXPECT_GT(h.arr.diskAt(1).stats().arrivals, 5u);
}

TEST(ArrayRaid1, HalfCapacity)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 4;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_EQ(h.arr.logicalSectors(),
              stripedCapacity(h.arr.diskAt(0).geometry().totalSectors(),
                              p.stripeSectors, 2));
}

TEST(ArrayRaid1, SinglePairKeepsFullMemberCapacity)
{
    ArrayParams p;
    p.layout = Layout::Raid1;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_EQ(h.arr.logicalSectors(),
              h.arr.diskAt(0).geometry().totalSectors());
}

TEST(ArrayRaid5, SmallWriteIsReadModifyWrite)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = 4;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 0, 8, false));
    h.simul.run();
    EXPECT_EQ(h.completions, 1u);
    // 2 reads (old data + old parity) + 2 writes (new data + parity).
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        total += h.arr.diskAt(i).stats().arrivals;
    EXPECT_EQ(total, 4u);
}

TEST(ArrayRaid5, ReadTouchesOnlyDataDisk)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = 4;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    Harness h(p);
    h.submitAt(0, makeReq(1, 0, 0, 8, true));
    h.simul.run();
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
        total += h.arr.diskAt(i).stats().arrivals;
    EXPECT_EQ(total, 1u);
}

TEST(ArrayRaid5, ParityRotates)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = 3;
    p.drive = smallDrive();
    p.stripeSectors = 16;
    Harness h(p);
    // Write one unit in each of the first three parity rows; parity
    // lands on a different disk each row, so all disks see traffic.
    const std::uint64_t row_sectors = 16 * 2; // (disks-1) units/row
    for (std::uint32_t r = 0; r < 3; ++r)
        h.submitAt(r * 20 * sim::kTicksPerMs,
                   makeReq(r, 0, r * row_sectors, 8, false));
    h.simul.run();
    for (std::uint32_t i = 0; i < 3; ++i)
        EXPECT_GT(h.arr.diskAt(i).stats().arrivals, 0u)
            << "disk " << i;
}

TEST(ArrayRaid5, CapacityExcludesParity)
{
    ArrayParams p;
    p.layout = Layout::Raid5;
    p.disks = 5;
    p.drive = smallDrive();
    Harness h(p);
    EXPECT_EQ(h.arr.logicalSectors(),
              stripedCapacity(h.arr.diskAt(0).geometry().totalSectors(),
                              p.stripeSectors, 4));
}

TEST(ArrayStriped, LastLogicalSectorIsAddressable)
{
    // The drive's sector count is not a stripe multiple, so the last
    // stripe row is partial. A request ending at logicalSectors()
    // must land inside its members: no clamp, no checker violation.
    for (const Layout layout :
         {Layout::Raid0, Layout::Raid1, Layout::Raid5}) {
        ArrayParams p;
        p.layout = layout;
        p.disks = 4;
        p.drive = smallDrive();
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        Harness h(p);
        ASSERT_NE(h.arr.diskAt(0).geometry().totalSectors() %
                      p.stripeSectors,
                  0u);
        const std::uint64_t end = h.arr.logicalSectors();
        h.submitAt(0, makeReq(1, 0, end - 8, 8, true));
        h.submitAt(0, makeReq(2, 0, end - 8, 8, false));
        h.simul.run();
        checker.finalize();
        EXPECT_EQ(h.completions, 2u);
        EXPECT_EQ(h.arr.stats().subClamped, 0u)
            << static_cast<int>(layout);
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
    }
}

TEST(ArrayPower, AggregatesAcrossDisks)
{
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 4;
    p.drive = smallDrive();
    Harness h(p);
    for (int i = 0; i < 40; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   makeReq(i, i % 4, 1000 + 64 * i, 8, true));
    const sim::Tick end = h.simul.run();
    const auto power = h.arr.finishPower();
    EXPECT_NEAR(power.wallSeconds, sim::ticksToSeconds(end), 1e-9);
    // Four spinning disks: at least 4x one idle drive's power.
    power::PowerModel one(smallDrive().power);
    EXPECT_GE(power.totalAvgW(), 4 * one.idleW() * 0.99);
}

TEST(ArrayPower, MostlyIdleArrayDominatedByIdleMode)
{
    // The paper's Figure 3 observation: even under I/O load, most of
    // an MD array's power is idle-mode power.
    ArrayParams p;
    p.layout = Layout::PassThrough;
    p.disks = 8;
    p.drive = smallDrive();
    Harness h(p);
    for (int i = 0; i < 100; ++i)
        h.submitAt(i * 10 * sim::kTicksPerMs,
                   makeReq(i, i % 8, 512 * i, 8, true));
    h.simul.run();
    const auto power = h.arr.finishPower();
    EXPECT_GT(power.modeAvgW(stats::DiskMode::Idle),
              power.totalAvgW() * 0.5);
}

TEST(ArrayStats, OnlyLogicalResponsesKeepSamples)
{
    // Every per-drive set and the array's rotation set keep moments
    // only; the logical response set is the one quantile source.
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 2;
    p.drive = smallDrive();
    Harness h(p);
    sim::Rng rng(14);
    const std::uint64_t space = h.arr.logicalSectors() - 64;
    for (int i = 0; i < 40; ++i)
        h.submitAt(i * sim::kTicksPerMs,
                   makeReq(i, 0, rng.uniformInt(space), 8, true));
    h.simul.run();
    const auto &drive = h.arr.diskAt(0).stats();
    ASSERT_GT(drive.seekMs.count(), 0u);
    EXPECT_GT(drive.responseMs.mean(), 0.0);
    EXPECT_GE(drive.rotMs.maxSeen(), drive.rotMs.minSeen());
    EXPECT_GT(h.arr.stats().responseMs.p90(), 0.0);
    EXPECT_DEATH(drive.seekMs.quantile(0.5), "keeps moments only");
    EXPECT_DEATH(drive.responseMs.p99(), "keeps moments only");
    EXPECT_DEATH(drive.rotMs.p90(), "keeps moments only");
    EXPECT_DEATH(h.arr.stats().rotMs.quantile(0.5), "keeps moments only");
}

TEST(ArrayStress, MixedLoadDrains)
{
    ArrayParams p;
    p.layout = Layout::Raid0;
    p.disks = 4;
    p.drive = disk::makeIntraDiskParallel(smallDrive(), 2);
    p.stripeSectors = 64;
    Harness h(p);
    sim::Rng rng(55);
    const std::uint64_t space = h.arr.logicalSectors() - 512;
    for (int i = 0; i < 2000; ++i)
        h.submitAt(rng.uniformInt(2000ULL * sim::kTicksPerMs),
                   makeReq(i, 0, rng.uniformInt(space), 1 + i % 128,
                           rng.chance(0.6)));
    h.simul.run();
    EXPECT_EQ(h.completions, 2000u);
    EXPECT_TRUE(h.arr.idle());
}

} // namespace
