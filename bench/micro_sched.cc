/**
 * @file
 * Scheduler-dispatch bench: SPTF cost at deep windows.
 *
 * Runs a 4-actuator drive under a closed-loop random read load at
 * fixed queue depths and reports, per depth, the candidates each
 * dispatch priced (the window x arms cross product), end-to-end
 * dispatch throughput and steady-state allocations per dispatch
 * (which must be zero: the window and pricing scratch are reused).
 * Emits BENCH_sched.json (idp-bench-v1).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_json.hh"
#include "config/env.hh"
#include "disk/disk_drive.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using Clock = std::chrono::steady_clock;

struct LoadResult
{
    double selections = 0.0;
    double priced = 0.0;
    double dispatches = 0.0;
    double secs = 0.0;
    double allocs = 0.0;
};

/**
 * Closed-loop constant-depth load: @p depth requests outstanding at
 * all times; every completion immediately submits a replacement at a
 * fresh random LBA, for @p total completions overall. The measured
 * window excludes the first half (warmup: pool growth, cache fill).
 */
LoadResult
runLoad(std::uint32_t depth, std::uint64_t total)
{
    disk::DriveSpec spec =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4);
    spec.sched.policy = sched::Policy::Sptf;
    spec.schedWindow = depth;

    sim::Simulator simul;
    sim::Rng rng(0x5C4ED);
    std::uint64_t remaining = total;
    std::uint64_t next_id = 1;
    std::uint64_t span = 0;

    disk::DiskDrive drive(
        simul, spec,
        [&](const workload::IoRequest &, sim::Tick,
            const disk::ServiceInfo &) {
            if (remaining == 0)
                return;
            --remaining;
            workload::IoRequest req;
            req.id = next_id++;
            req.arrival = simul.now();
            req.lba = rng.uniformInt(span);
            req.sectors = 8;
            req.isRead = true;
            drive.submit(req);
        });
    span = drive.geometry().totalSectors() - 64;
    const disk::DriveStats &st = drive.stats();

    // Prime the loop to the target depth.
    for (std::uint32_t i = 0; i < depth; ++i) {
        workload::IoRequest req;
        req.id = next_id++;
        req.arrival = 0;
        req.lba = rng.uniformInt(span);
        req.sectors = 8;
        req.isRead = true;
        simul.schedule(0, [&drive, req] { drive.submit(req); });
    }

    // Warmup: 90% of the load, so the measured window sees only
    // steady-state dispatch work. The drive's sample sets keep
    // moments only and never grow.
    const std::uint64_t warm_until = total / 10;
    while (remaining > warm_until && simul.step()) {
    }

    const double sel0 = static_cast<double>(st.selections);
    const double priced0 = static_cast<double>(st.candidatesPriced);
    const double disp0 = static_cast<double>(st.mediaAccesses);
    const std::uint64_t allocs0 = benchjson::allocCount();
    const auto t0 = Clock::now();
    // Measured window: steady state only — stop once the last
    // replacement has been submitted, before the queue drains.
    while (remaining > 0 && simul.step()) {
    }
    const auto t1 = Clock::now();
    const std::uint64_t allocs1 = benchjson::allocCount();
    simul.run(); // drain the tail outside the measured window

    LoadResult r;
    r.selections = static_cast<double>(st.selections) - sel0;
    r.priced = static_cast<double>(st.candidatesPriced) - priced0;
    r.dispatches = static_cast<double>(st.mediaAccesses) - disp0;
    r.secs = std::chrono::duration<double>(t1 - t0).count();
    r.allocs = static_cast<double>(allocs1 - allocs0);
    return r;
}

} // namespace

int
main()
{
    const idp::config::Env env = idp::config::resolveEnv();
    idp::sim::setLogThreshold(env.logLevel);
    const bool smoke = env.benchSmoke;
    idp::benchjson::BenchReport report("sched");

    const std::uint32_t depths[] = {16, 64, 256};
    for (const std::uint32_t depth : depths) {
        const std::uint64_t total = smoke ? 2400 : 40000;
        const LoadResult r = runLoad(depth, total);
        const std::string q = "_q" + std::to_string(depth);

        report.add("sptf_priced_per_dispatch" + q,
                   r.priced / r.selections, "candidates/dispatch");
        report.add("sched_dispatches_per_sec" + q,
                   r.dispatches / r.secs, "dispatches/s");
        report.add("sched_allocs_per_dispatch" + q,
                   r.allocs / r.dispatches, "allocs/dispatch");

        std::printf("SPTF q=%-3u: priced %.1f candidates/dispatch, "
                    "%.0f dispatches/s, %.0f allocs/dispatch\n",
                    depth, r.priced / r.selections,
                    r.dispatches / r.secs, r.allocs / r.dispatches);
    }

    report.write(env.benchOut);
    return 0;
}
