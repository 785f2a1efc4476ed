/**
 * @file
 * Google-benchmark microbenchmarks for the simulator core: event
 * queue throughput, geometry mapping, seek/rotation math, scheduler
 * selection cost, and end-to-end drive service rate. These guard the
 * simulator's own performance (the experiment benches replay hundreds
 * of thousands of requests per configuration).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "bench_json.hh"
#include "config/env.hh"
#include "disk/disk_drive.hh"
#include "geom/geometry.hh"
#include "mech/seek_model.hh"
#include "mech/spindle.hh"
#include "sched/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "telemetry/telemetry.hh"

namespace {

using namespace idp;

/** The resolved environment; main sets it before any benchmark runs. */
config::Env g_env;

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator simul;
        for (int i = 0; i < 1024; ++i)
            simul.schedule(static_cast<sim::Tick>(i * 37 % 4096),
                           [] {});
        simul.run();
        benchmark::DoNotOptimize(simul.eventsFired());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_GeometryLbaToChs(benchmark::State &state)
{
    const auto g = geom::DiskGeometry::build(geom::GeometryParams{});
    sim::Rng rng(1);
    std::vector<geom::Lba> lbas(4096);
    for (auto &l : lbas)
        l = rng.uniformInt(g.totalSectors());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.lbaToChs(lbas[i++ & 4095]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeometryLbaToChs);

void
BM_SeekTime(benchmark::State &state)
{
    mech::SeekParams p;
    p.cylinders = 120000;
    const mech::SeekModel m(p);
    std::uint32_t d = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.seekTimeMs(d));
        d = (d * 7 + 13) % 120000;
    }
}
BENCHMARK(BM_SeekTime);

void
BM_SpindleWait(benchmark::State &state)
{
    const mech::Spindle s(7200);
    sim::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.waitFor(t, 0.37, 0.5));
        t += 12345;
    }
}
BENCHMARK(BM_SpindleWait);

void
BM_SptfSelect(benchmark::State &state)
{
    const std::int64_t window = state.range(0);
    auto scheduler = sched::makeScheduler({sched::Policy::Sptf, 0.0});
    std::vector<sched::PendingView> pending;
    for (std::int64_t i = 0; i < window; ++i)
        pending.push_back({static_cast<std::uint32_t>(i), 0,
                           static_cast<std::uint32_t>(i * 613 % 100000),
                           0, true});
    std::vector<sched::ArmView> arms = {
        {0, 10000, 0.0}, {1, 40000, 0.25}, {2, 70000, 0.5},
        {3, 95000, 0.75}};
    const sched::PositioningFn oracle =
        [](const sched::PendingView &r, const sched::ArmView &a) {
            return static_cast<sim::Tick>(
                r.cylinder > a.cylinder ? r.cylinder - a.cylinder
                                        : a.cylinder - r.cylinder);
        };
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduler->select(pending, arms, oracle, 0));
    }
    state.SetItemsProcessed(state.iterations() * window * 4);
}
BENCHMARK(BM_SptfSelect)->Arg(8)->Arg(48)->Arg(128);

/** One drive servicing 512 random reads; shared by the variants. */
void
driveServiceOnce(std::uint32_t arms)
{
    sim::Simulator simul;
    const disk::DriveSpec spec = disk::makeIntraDiskParallel(
        disk::enterpriseDrive(2.0, 10000, 2), arms);
    std::uint64_t done = 0;
    disk::DiskDrive drive(
        simul, spec,
        [&done](const workload::IoRequest &, sim::Tick,
                const disk::ServiceInfo &) { ++done; });
    sim::Rng rng(7);
    const std::uint64_t total = drive.geometry().totalSectors() - 64;
    for (int i = 0; i < 512; ++i) {
        workload::IoRequest req;
        req.id = i;
        req.arrival = 0;
        req.lba = rng.uniformInt(total);
        req.sectors = 8;
        req.isRead = true;
        simul.schedule(0, [&drive, req] { drive.submit(req); });
    }
    simul.run();
    benchmark::DoNotOptimize(done);
}

/**
 * Telemetry compiled in but no tracer installed: the hooks are one
 * thread-local load and branch each. The acceptance bound for the
 * telemetry subsystem is <2% slowdown of this benchmark relative to
 * an IDP_TELEMETRY=OFF build (where the hooks fold away entirely).
 */
void
BM_DriveServiceRate(benchmark::State &state)
{
    const std::uint32_t arms = static_cast<std::uint32_t>(
        state.range(0));
    for (auto _ : state)
        driveServiceOnce(arms);
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DriveServiceRate)->Arg(1)->Arg(4);

/** Same work with a live tracer + registry: the tracing-on cost. */
void
BM_DriveServiceRateTraced(benchmark::State &state)
{
    const std::uint32_t arms = static_cast<std::uint32_t>(
        state.range(0));
    for (auto _ : state) {
        telemetry::Registry registry;
        telemetry::TraceOptions topts;
        topts.enabled = true;
        telemetry::Tracer tracer(topts);
        telemetry::RegistryScope rscope(&registry);
        telemetry::TraceScope tscope(&tracer);
        driveServiceOnce(arms);
        benchmark::DoNotOptimize(tracer.ring().size());
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DriveServiceRateTraced)->Arg(1)->Arg(4);

/**
 * Steady-state measurements for the perf-trajectory report
 * (BENCH_kernel.json). Unlike the google-benchmark loops above, these
 * keep one simulator (and one drive) alive across the whole window so
 * the pooled calendar and pending arenas reach their zero-allocation
 * steady state, which the report asserts via the interposed
 * allocation counter.
 */
void
emitKernelReport()
{
    using Clock = std::chrono::steady_clock;
    benchjson::BenchReport report("kernel");
    const bool smoke = g_env.benchSmoke;

    {
        // Raw calendar throughput: schedule/fire 4096-event batches.
        sim::Simulator simul;
        auto pump = [&simul](int batches) {
            for (int b = 0; b < batches; ++b) {
                const sim::Tick base = simul.now();
                for (int i = 0; i < 4096; ++i)
                    simul.schedule(
                        base + static_cast<sim::Tick>(i * 37 % 4096),
                        [] {});
                simul.run();
            }
        };
        pump(smoke ? 4 : 64);
        const std::uint64_t fired0 = simul.eventsFired();
        const std::uint64_t allocs0 = benchjson::allocCount();
        const auto t0 = Clock::now();
        pump(smoke ? 8 : 512);
        const auto t1 = Clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        const double events =
            static_cast<double>(simul.eventsFired() - fired0);
        const double allocs =
            static_cast<double>(benchjson::allocCount() - allocs0);
        report.add("calendar_events_per_sec", events / secs,
                   "events/s");
        report.add("calendar_allocs_per_event", allocs / events,
                   "allocs/event");
    }

    {
        // End-to-end drive service: 512 random reads per round on a
        // persistent 4-arm drive.
        sim::Simulator simul;
        const disk::DriveSpec spec = disk::makeIntraDiskParallel(
            disk::enterpriseDrive(2.0, 10000, 2), 4);
        std::uint64_t done = 0;
        disk::DiskDrive drive(
            simul, spec,
            [&done](const workload::IoRequest &, sim::Tick,
                    const disk::ServiceInfo &) { ++done; });
        sim::Rng rng(7);
        const std::uint64_t total =
            drive.geometry().totalSectors() - 64;
        std::uint64_t next_id = 0;
        auto pump = [&](int rounds) {
            for (int r = 0; r < rounds; ++r) {
                const sim::Tick base = simul.now();
                for (int i = 0; i < 512; ++i) {
                    workload::IoRequest req;
                    req.id = next_id++;
                    req.arrival = base;
                    req.lba = rng.uniformInt(total);
                    req.sectors = 8;
                    req.isRead = true;
                    simul.schedule(base,
                                   [&drive, req] { drive.submit(req); });
                }
                simul.run();
            }
        };
        // Warm up (65 rounds = 33280 requests) so the measured window
        // sees only steady-state work. The drive's sample sets keep
        // moments only and never grow.
        pump(smoke ? 9 : 65);
        const std::uint64_t fired0 = simul.eventsFired();
        const std::uint64_t disp0 = drive.stats().mediaAccesses;
        const std::uint64_t done0 = done;
        const std::uint64_t allocs0 = benchjson::allocCount();
        const auto t0 = Clock::now();
        pump(smoke ? 4 : 32);
        const auto t1 = Clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        const double events =
            static_cast<double>(simul.eventsFired() - fired0);
        const double allocs =
            static_cast<double>(benchjson::allocCount() - allocs0);
        report.add("drive_events_per_sec", events / secs, "events/s");
        report.add("drive_dispatches_per_sec",
                   static_cast<double>(drive.stats().mediaAccesses -
                                       disp0) /
                       secs,
                   "dispatches/s");
        report.add("drive_requests_per_sec",
                   static_cast<double>(done - done0) / secs,
                   "requests/s");
        report.add("drive_allocs_per_event", allocs / events,
                   "allocs/event");
    }

    report.write(g_env.benchOut);
}

} // namespace

int
main(int argc, char **argv)
{
    g_env = config::resolveEnv();
    sim::setLogThreshold(g_env.logLevel);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitKernelReport();
    return 0;
}
