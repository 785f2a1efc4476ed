/**
 * @file
 * Tests for the optional drive features: zero-latency (read-on-
 * arrival) access and contiguous request coalescing.
 */

#include <gtest/gtest.h>

#include "disk/disk_drive.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using disk::DriveSpec;
using workload::IoRequest;

DriveSpec
testSpec()
{
    return disk::enterpriseDrive(2.0, 10000, 2);
}

using Harness = test::DriveRig;

IoRequest
read(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
     bool background = false)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = true;
    r.background = background;
    return r;
}

TEST(ZeroLatency, FullTrackReadNeverWaitsOnRotation)
{
    DriveSpec spec = testSpec();
    spec.zeroLatencyAccess = true;
    spec.cache.readAheadSectors = 0; // keep cache out of the picture
    Harness h(spec);
    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    const double period_ms = h.drive.spindle().periodMs();
    // Many full-track reads at random phases.
    for (int i = 0; i < 40; ++i)
        h.submitAt(static_cast<sim::Tick>(i) * 17 *
                       sim::kTicksPerMs,
                   read(i, static_cast<geom::Lba>(i) * spt, spt));
    h.simul.run();
    ASSERT_EQ(h.completions.size(), 40u);
    // Full-track zero-latency: the media part never exceeds ~one
    // revolution + small switch/overhead, regardless of phase.
    for (const auto &[req, t, info] : h.completions) {
        const double resp_ms = sim::ticksToMs(t - req.arrival);
        EXPECT_LT(resp_ms, period_ms * 1.35 + 1.0);
    }
    EXPECT_GT(h.drive.stats().zeroLatencyHits, 10u);
}

TEST(ZeroLatency, ConventionalFullTrackWaitsHalfRevOnAverage)
{
    DriveSpec spec = testSpec();
    spec.cache.readAheadSectors = 0;
    Harness h(spec);
    const std::uint32_t spt = h.drive.geometry().sectorsPerTrack(0);
    const double period_ms = h.drive.spindle().periodMs();
    double sum = 0.0;
    for (int i = 0; i < 40; ++i)
        h.submitAt(static_cast<sim::Tick>(i) * 17 *
                       sim::kTicksPerMs,
                   read(i, static_cast<geom::Lba>(i) * spt, spt));
    h.simul.run();
    for (const auto &[req, t, info] : h.completions)
        sum += sim::ticksToMs(t - req.arrival);
    // ~1.5 revolutions on average (wait half + read one).
    EXPECT_GT(sum / 40.0, period_ms * 1.3);
    EXPECT_EQ(h.drive.stats().zeroLatencyHits, 0u);
}

TEST(ZeroLatency, SmallRandomRequestsUnaffectedOnMiss)
{
    // A tiny request rarely sits under the head; when it does not,
    // service must match the conventional path exactly.
    DriveSpec conventional = testSpec();
    DriveSpec zl = testSpec();
    zl.zeroLatencyAccess = true;
    sim::Tick ends[2];
    int v = 0;
    for (const DriveSpec &spec : {conventional, zl}) {
        Harness h(spec);
        sim::Rng rng(71);
        const std::uint64_t space =
            h.drive.geometry().totalSectors() - 8;
        for (int i = 0; i < 300; ++i)
            h.submitAt(static_cast<sim::Tick>(i) * 9 *
                           sim::kTicksPerMs,
                       read(i, rng.uniformInt(space), 8));
        ends[v++] = h.simul.run();
    }
    // Occasional in-run hits make ZL no slower overall.
    EXPECT_LE(ends[1], ends[0] + sim::kTicksPerMs);
}

TEST(Coalesce, ContiguousBurstFoldsIntoOneAccess)
{
    DriveSpec spec = testSpec();
    spec.coalesce = true;
    Harness h(spec);
    // A far-away request first so the burst queues behind it.
    h.submitAt(0, read(0, h.drive.geometry().totalSectors() - 64, 8));
    for (int i = 0; i < 4; ++i)
        h.submitAt(1, read(1 + i, 5000 + 8 * i, 8));
    h.simul.run();
    EXPECT_EQ(h.completions.size(), 5u);
    EXPECT_EQ(h.drive.stats().coalescedRequests, 3u);
    // 5 completions but only 2 media accesses.
    EXPECT_EQ(h.drive.stats().mediaAccesses, 2u);
    // The four coalesced requests complete at the same instant.
    sim::Tick burst_end = 0;
    for (const auto &[req, t, info] : h.completions) {
        if (req.id >= 1)
            burst_end = std::max(burst_end, t);
    }
    for (const auto &[req, t, info] : h.completions) {
        if (req.id >= 1) {
            EXPECT_EQ(t, burst_end);
        }
    }
}

TEST(Coalesce, RespectsLimit)
{
    DriveSpec spec = testSpec();
    spec.coalesce = true;
    spec.coalesceLimit = 2;
    Harness h(spec);
    h.submitAt(0, read(0, h.drive.geometry().totalSectors() - 64, 8));
    for (int i = 0; i < 4; ++i)
        h.submitAt(1, read(1 + i, 5000 + 8 * i, 8));
    h.simul.run();
    // Limit 2: head + 1 rider per access -> 2 accesses for the burst.
    EXPECT_EQ(h.drive.stats().mediaAccesses, 3u);
}

TEST(Coalesce, MixedKindsNotMerged)
{
    DriveSpec spec = testSpec();
    spec.coalesce = true;
    Harness h(spec);
    h.submitAt(0, read(0, h.drive.geometry().totalSectors() - 64, 8));
    IoRequest w = read(1, 5000, 8);
    w.isRead = false;
    h.submitAt(1, w);
    h.submitAt(1, read(2, 5008, 8)); // read after write: no merge
    h.simul.run();
    EXPECT_EQ(h.drive.stats().coalescedRequests, 0u);
}

TEST(Coalesce, OffByDefault)
{
    Harness h(testSpec());
    h.submitAt(0, read(0, h.drive.geometry().totalSectors() - 64, 8));
    for (int i = 0; i < 3; ++i)
        h.submitAt(1, read(1 + i, 5000 + 8 * i, 8));
    h.simul.run();
    EXPECT_EQ(h.drive.stats().coalescedRequests, 0u);
    EXPECT_EQ(h.drive.stats().mediaAccesses, 4u);
}

TEST(Coalesce, SequentialStreamThroughputImproves)
{
    // A sequential stream issued as separate commands: coalescing
    // drains a backlog in fewer media accesses.
    DriveSpec plain = testSpec();
    plain.cache.readAheadSectors = 0;
    DriveSpec merged = plain;
    merged.coalesce = true;
    merged.coalesceLimit = 8;
    sim::Tick ends[2];
    std::uint64_t accesses[2];
    int v = 0;
    for (const DriveSpec &spec : {plain, merged}) {
        Harness h(spec);
        for (int i = 0; i < 64; ++i)
            h.submitAt(0, read(i, 4096 + 8 * i, 8));
        ends[v] = h.simul.run();
        accesses[v] = h.drive.stats().mediaAccesses;
        ++v;
    }
    EXPECT_LT(accesses[1], accesses[0]);
    EXPECT_LE(ends[1], ends[0]);
}

} // namespace
