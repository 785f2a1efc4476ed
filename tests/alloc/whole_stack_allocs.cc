/**
 * @file
 * Whole-stack steady-state allocation audit.
 *
 * This executable links the counting global allocator of
 * bench/bench_json.cc, which is why it is separate from idp_tests.
 * Each scenario runs the complete stack — workload feed, array
 * fan-out and join, drives, bus, rebuild, serving loop, PDES engine,
 * with the invariant checker on — once at N requests and once at 2N.
 * Set-up is identical in both runs, so the difference in allocations
 * is what the extra requests cost. With an allocation-free request
 * path that difference is a small constant: the one extra doubling of
 * each buffer that grows with run length (sample sets, the calendar
 * slab, the id tables). A single heap allocation per request would
 * add N. Every scenario runs below saturation: an overloaded array's
 * queues keep deepening, so its arenas legitimately grow with run
 * length and the two runs would not share one peak population.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "array/rebuild.hh"
#include "array/storage_array.hh"
#include "bench_json.hh"
#include "core/experiment.hh"
#include "disk/drive_config.hh"
#include "serve/service_loop.hh"
#include "sim/event_queue.hh"
#include "verify/invariant_checker.hh"
#include "verify/verify.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

/** Requests in the shorter run of each scenario. */
constexpr std::uint64_t kRequests = 3000;
/**
 * Largest allowed difference between the 2N and the N run: buffer
 * doublings only (each growable buffer doubles at most once more in
 * the longer run; an 8-disk array has a few dozen of them).
 */
constexpr std::uint64_t kMaxExtraAllocs = 64;

workload::Trace
syntheticTrace(std::uint64_t requests, double inter_arrival_ms,
               double read_fraction, std::uint64_t space)
{
    workload::SyntheticParams p;
    p.requests = requests;
    p.meanInterArrivalMs = inter_arrival_ms;
    p.readFraction = read_fraction;
    p.addressSpaceSectors = space;
    p.seed = 0xA110C;
    return workload::generateSynthetic(p);
}

/** One run's allocations and the requests that carried them. */
struct Measured
{
    std::uint64_t allocs = 0;
    std::uint64_t requests = 0;
};

/** Allocations of one core::runTrace (checker on, tracing off). */
Measured
measureRunTrace(const core::SystemConfig &config,
                const workload::Trace &trace)
{
    verify::InvariantChecker checker(verify::FailMode::Record);
    verify::VerifyScope scope(&checker);
    const std::uint64_t a0 = benchjson::allocCount();
    const core::RunResult r = core::runTrace(trace, config);
    const std::uint64_t allocs = benchjson::allocCount() - a0;
    EXPECT_EQ(r.completions, trace.size());
    EXPECT_TRUE(checker.violations().empty())
        << checker.violations().front();
    return {allocs, trace.size()};
}

/** Assert the 2N run cost only buffer doublings over the N run. */
void
expectConstantOverhead(const std::string &what, const Measured &n,
                       const Measured &n2)
{
    ASSERT_GT(n2.requests, n.requests + n.requests / 2) << what;
    const std::uint64_t extra = n2.allocs > n.allocs
        ? n2.allocs - n.allocs
        : 0;
    EXPECT_LE(extra, kMaxExtraAllocs)
        << what << ": " << n.allocs << " allocations at "
        << n.requests << " requests, " << n2.allocs << " at "
        << n2.requests << " ("
        << static_cast<double>(extra) /
            static_cast<double>(n2.requests - n.requests)
        << " per extra request)";
}

core::SystemConfig
serialConfig(core::SystemConfig config)
{
    config.pdesWorkers = 0;
    return config;
}

void
checkRunTrace(const std::string &what, const core::SystemConfig &config,
              double inter_arrival_ms, double read_fraction,
              std::uint64_t space)
{
    // Warm the process (thread-locals, static tables, the allocator)
    // so neither measured run pays first-use costs.
    measureRunTrace(config, syntheticTrace(200, inter_arrival_ms,
                                           read_fraction, space));
    const Measured n = measureRunTrace(
        config,
        syntheticTrace(kRequests, inter_arrival_ms, read_fraction, space));
    const Measured n2 = measureRunTrace(
        config, syntheticTrace(2 * kRequests, inter_arrival_ms,
                               read_fraction, space));
    expectConstantOverhead(what, n, n2);
}

/** Sectors of the default synthetic address space (fits one 750 GB
 *  member). */
constexpr std::uint64_t kSpace = 1464ULL * 1000 * 1000;

} // namespace

TEST(WholeStackAllocs, Concat)
{
    core::SystemConfig config = serialConfig(core::makeRaid0System(
        "SA4", disk::makeIntraDiskParallel(disk::barracudaEs750(), 4),
        1));
    checkRunTrace("concat SA(4)", config, 4.0, 0.6, kSpace);
}

TEST(WholeStackAllocs, Raid0)
{
    core::SystemConfig config = serialConfig(core::makeRaid0System(
        "4x HC-SD", disk::barracudaEs750(), 4));
    checkRunTrace("raid0 x4", config, 4.0, 0.6, kSpace);
}

TEST(WholeStackAllocs, Raid5ReadModifyWrite)
{
    core::SystemConfig config = serialConfig(core::makeRaid0System(
        "5x HC-SD", disk::barracudaEs750(), 5));
    config.array.layout = array::Layout::Raid5;
    // Mostly writes: every one expands into the RMW read phase, then
    // the deferred data + parity writes.
    checkRunTrace("raid5 x5 rmw", config, 10.0, 0.3, kSpace);
}

TEST(WholeStackAllocs, Pdes4WorkerRaid1)
{
    core::SystemConfig config = core::makeRaid0System(
        "8x SA2", disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
        8);
    config.array.layout = array::Layout::Raid1;
    config.pdesWorkers = 4;
    checkRunTrace("pdes 4w raid1 x8", config, 2.0, 0.6, kSpace);
}

TEST(WholeStackAllocs, Raid1BusFailAndRebuild)
{
    array::ArrayParams params;
    params.layout = array::Layout::Raid1;
    params.disks = 4;
    params.drive = disk::enterpriseDrive(1.0, 10000, 2);
    params.useBus = true;

    auto run = [&](std::uint64_t requests) {
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        Measured m;
        m.requests = requests;
        std::uint64_t a0 = 0;
        {
            sim::Simulator simul;
            array::StorageArray arr(simul, params);
            // The trace covers the whole logical space.
            const workload::Trace trace =
                syntheticTrace(requests, 5.0, 0.6, arr.logicalSectors());
            a0 = benchjson::allocCount();
            // Member 0 fails early and rebuilds onto its spare while
            // foreground traffic runs; both runs rebuild identically.
            arr.scheduleFailDisk(0, sim::msToTicks(500.0));
            array::RebuildParams rp;
            rp.chunkSectors = 65536;
            arr.scheduleStartRebuild(0, sim::msToTicks(1000.0), rp);
            for (const workload::IoRequest &r : trace)
                simul.schedule(r.arrival, [&arr, &r] { arr.submit(r); });
            simul.run();
            EXPECT_EQ(arr.stats().logicalCompletions, requests);
            EXPECT_TRUE(arr.rebuild() != nullptr &&
                        arr.rebuild()->progress().done);
            EXPECT_GT(arr.hostBus()->stats().transfers, requests);
        }
        checker.finalize();
        m.allocs = benchjson::allocCount() - a0;
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
        return m;
    };
    run(200);
    const Measured n = run(kRequests);
    const Measured n2 = run(2 * kRequests);
    expectConstantOverhead("raid1 x4 bus + fail + rebuild", n, n2);
}

TEST(WholeStackAllocs, ServeLoop)
{
    const core::SystemConfig system = core::makeRaid0System(
        "SA2", disk::makeIntraDiskParallel(disk::barracudaEs750(), 2),
        2);
    auto run = [&](double seconds) {
        serve::ServeParams p;
        p.tenants = 2000;
        p.openFraction = 0.1;
        p.thinkMs = 1000.0;
        p.openRatePerSec = 0.5;
        p.durationSeconds = seconds;
        p.warmupSeconds = 0.5;
        p.seed = 77;
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        const std::uint64_t a0 = benchjson::allocCount();
        const serve::ServeResult r = serve::runService(system, p);
        Measured m;
        m.allocs = benchjson::allocCount() - a0;
        m.requests = r.totals.admitted;
        EXPECT_EQ(r.totals.completions, r.totals.admitted);
        EXPECT_GT(r.totals.specSubmitted, 0u);
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
        return m;
    };
    run(1.0);
    const Measured n = run(4.0);
    const Measured n2 = run(8.0);
    expectConstantOverhead("serve 2000 tenants", n, n2);
}
