#include "core/closed_loop.hh"

#include "core/run.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"

namespace idp {
namespace core {

double
ClosedLoopResult::impliedWorkers(double think_ms) const
{
    return throughputIops * (meanResponseMs + think_ms) / 1000.0;
}

ClosedLoopResult
runClosedLoop(const SystemConfig &config,
              const ClosedLoopParams &params)
{
    sim::simAssert(params.workers >= 1, "closed loop: needs workers");
    sim::simAssert(params.horizonSeconds > 0.0,
                   "closed loop: needs a horizon");

    sim::Rng rng(params.seed);
    stats::SampleSet responses;
    std::uint64_t completions = 0;
    const sim::Tick horizon =
        sim::secondsToTicks(params.horizonSeconds);

    // Worker w's requests carry id = (w << 32) | sequence.
    std::vector<std::uint64_t> next_seq(params.workers, 0);
    std::function<void(std::uint32_t)> issue; // wired below

    // The callback runs only once the run drains, so it may name the
    // run it is handed to.
    Run run(
        config, [&](const workload::IoRequest &req, sim::Tick done) {
            responses.add(sim::ticksToMs(done - req.arrival));
            ++completions;
            if (done >= horizon)
                return; // past the horizon: this worker retires
            const std::uint32_t w =
                static_cast<std::uint32_t>(req.id >> 32);
            const sim::Tick think =
                sim::msToTicks(rng.exponential(params.thinkMs));
            run.sim().schedule(done + think, [&issue, w] { issue(w); });
        });
    sim::Simulator &simul = run.sim();
    array::StorageArray &arr = run.array();

    const std::uint64_t space = params.addressSpaceSectors
        ? params.addressSpaceSectors
        : arr.logicalSectors();
    sim::simAssert(space > params.maxSectors,
                   "closed loop: address space too small");

    issue = [&](std::uint32_t w) {
        workload::IoRequest req;
        req.id = (static_cast<std::uint64_t>(w) << 32) |
            next_seq[w]++;
        req.arrival = simul.now();
        req.isRead = rng.chance(params.readFraction);
        req.sectors = static_cast<std::uint32_t>(rng.uniformInt(
            static_cast<std::int64_t>(params.minSectors),
            static_cast<std::int64_t>(params.maxSectors)));
        // Per-request limit, matching the synthetic generator: every
        // LBA with lba + sectors <= space is drawable, so short
        // requests can reach the end of the address space instead of
        // leaving a maxSectors-sized dead zone.
        req.lba = rng.uniformInt(space - req.sectors + 1);
        arr.submit(req);
    };

    // Stagger initial issues across one think time.
    for (std::uint32_t w = 0; w < params.workers; ++w) {
        const sim::Tick start =
            sim::msToTicks(rng.exponential(params.thinkMs));
        simul.schedule(start, [&issue, w] { issue(w); });
    }
    run.drain();

    ClosedLoopResult result;
    result.completions = completions;
    result.horizonSeconds = sim::ticksToSeconds(run.endTick());
    result.throughputIops = result.horizonSeconds > 0.0
        ? static_cast<double>(completions) / result.horizonSeconds
        : 0.0;
    result.meanResponseMs = responses.mean();
    result.p90ResponseMs = responses.p90();
    result.power = arr.finishPower();
    return result;
}

} // namespace core
} // namespace idp
