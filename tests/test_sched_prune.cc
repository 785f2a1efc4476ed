/**
 * @file
 * Drive-level scheduler tests at deep windows (256 pending requests):
 * the SptfAged starvation bound the aging credit exists to provide,
 * and a deep-queue scenario held to a golden CSV across IDP_THREADS
 * settings.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "disk/disk_drive.hh"
#include "exec/fork_join.hh"
#include "rig.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;
using disk::DriveSpec;
using workload::IoRequest;

using Harness = test::DriveRig;
using test::Completion;

IoRequest
makeReq(std::uint64_t id, geom::Lba lba, std::uint32_t sectors,
        bool is_read)
{
    IoRequest r;
    r.id = id;
    r.lba = lba;
    r.sectors = sectors;
    r.isRead = is_read;
    return r;
}

/**
 * SptfAged starvation bound: a lone request on a far cylinder, buried
 * under a continuous stream of hot-cylinder traffic that pure SPTF
 * would always prefer, must still complete while the hot stream is
 * active -- the aging credit guarantees its effective cost eventually
 * undercuts every fresh nearby request.
 */
sim::Tick
coldRequestCompletion()
{
    // 4-actuator drive with a deep scheduling window.
    DriveSpec spec = disk::makeIntraDiskParallel(
        disk::enterpriseDrive(2.0, 10000, 2), 4);
    spec.sched.policy = sched::Policy::SptfAged;
    spec.sched.agingWeight = 0.01;
    spec.schedWindow = 256;
    Harness h(spec);
    const std::uint64_t span = h.drive.geometry().totalSectors() - 64;
    sim::Rng rng(0xC01D);

    // Hot stream: 2000 requests, 0.25 ms apart, all within a narrow
    // LBA band at the start of the disk (the arms park nearby).
    for (std::uint64_t i = 0; i < 2000; ++i)
        h.submitAt(1 + i * (sim::kTicksPerMs / 4),
                   makeReq(i, rng.uniformInt(span / 64), 8, true));
    // The cold outlier: one request at the far end of the disk,
    // submitted early so its wait accrues while the hot stream runs.
    const std::uint64_t cold_id = 9999;
    h.submitAt(2 * sim::kTicksPerMs,
               makeReq(cold_id, span - 8, 8, true));
    h.simul.run();

    for (const Completion &c : h.completions)
        if (c.req.id == cold_id)
            return c.done;
    ADD_FAILURE() << "cold request never completed";
    return 0;
}

TEST(SchedPrune, SptfAgedServesColdRequestWithinAgingBound)
{
    const sim::Tick done = coldRequestCompletion();
    // The hot stream alone runs for 500 ms. With agingWeight 0.01 the
    // cold request's credit grows ~10 ticks per ms of wait; it must
    // be dispatched well before the stream ends rather than starving
    // behind it.
    EXPECT_LT(sim::ticksToMs(done), 350.0);
    EXPECT_GT(sim::ticksToMs(done), 2.0);
}

// ---------------------------------------------------------------
// Deep-queue golden determinism across thread counts
// ---------------------------------------------------------------

/** A saturating scenario whose window stays at 256 for most of the
 *  run; summarized as CSV. */
std::string
runDeepScenario(unsigned threads)
{
    const auto results = exec::parallelMap(
        8, threads, [](std::size_t point) {
            workload::SyntheticParams wp;
            wp.requests = 3000;
            wp.seed = sim::streamSeed(0xDEE9, point);
            wp.meanInterArrivalMs = 0.25; // saturating arrival rate
            DriveSpec drive = disk::makeIntraDiskParallel(
                disk::barracudaEs750(), 1 + point % 4);
            drive.sched.policy = point % 2 == 0
                ? sched::Policy::Sptf
                : sched::Policy::SptfAged;
            drive.schedWindow = 256;
            const core::SystemConfig config = core::makeRaid0System(
                "deepq#" + std::to_string(point), drive, 1);
            return core::runTrace(workload::generateSynthetic(wp),
                                  config);
        });
    std::ostringstream os;
    core::writeSummaryCsv(os, results);
    core::writeCdfCsv(os, results);
    return os.str();
}

TEST(SchedPruneGolden, DeepQueueScenarioMatchesGoldenFile)
{
    test::expectGolden("determinism_deepq.csv", runDeepScenario(1));
}

TEST(SchedPruneGolden, ThreadCountIsUnobservable)
{
    EXPECT_EQ(runDeepScenario(1), runDeepScenario(8));
}

} // namespace
