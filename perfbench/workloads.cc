#include "workloads.hh"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench_json.hh"
#include "disk/drive_config.hh"
#include "exec/pdes.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "telemetry/span.hh"
#include "verify/verify.hh"
#include "workload/commercial.hh"
#include "workload/synthetic.hh"

namespace idp {
namespace perfbench {

namespace {

/**
 * setup_s is the median of every set-up a run times: kSetupRounds
 * rounds after kSetupWarmupS of untimed ones (a fresh process's first
 * tens of milliseconds of set-up run measurably slower), then one more
 * round after each timed repetition. Spread over the whole run, they
 * sample the host as the timed region does. When they all fell in the
 * run's first 2.5 s, about one run in five read 0.65x the others.
 */
constexpr int kSetupRounds = 3;
constexpr double kSetupWarmupS = 1.0;
/** The timed region repeats its unit at least this often. */
constexpr std::size_t kMinTimedReps = 3;

/** Span-ring size for traced runs: phase totals are exact regardless,
 *  the ring only bounds the retained window. */
constexpr std::size_t kTraceRing = 1u << 12;

/** Every per-layer metric, in output order, with its unit. Each
 *  traced run prints all of them; layers a workload does not exercise
 *  read 0. */
struct LayerDef
{
    const char *name;
    const char *unit;
};

const LayerDef kLayers[] = {
    {"sim.events_per_request", "events/req"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.cancels_per_request", "cancels/req"},
    {"sim.peak_pending", "events"},
    {"sched.priced_per_selection", "ratio"},
    {"sched.pruned_per_selection", "ratio"},
    {"disk.media_accesses_per_request", "ratio"},
    {"disk.nonzero_seek_frac", "frac"},
    {"disk.zero_latency_hits", "count"},
    {"disk.sim_host_queue_ms", "ms/req"},
    {"disk.sim_seek_ms", "ms/req"},
    {"disk.sim_rot_wait_ms", "ms/req"},
    {"disk.sim_channel_wait_ms", "ms/req"},
    {"disk.sim_transfer_ms", "ms/req"},
    {"disk.sim_spin_up_ms", "ms/req"},
    {"disk.channel_blocks", "count"},
    {"cache.read_hit_ratio", "frac"},
    {"cache.write_absorbed_frac", "frac"},
    {"bus.transfers_per_request", "ratio"},
    {"bus.mb_moved", "MB"},
    {"array.subs_per_request", "ratio"},
    {"array.replica_priced_per_read", "ratio"},
    {"array.replica_ties", "count"},
    {"array.dropped_subs", "count"},
    {"array.tainted_joins", "count"},
    {"array.build_s", "s"},
    {"rebuild.chunks", "count"},
    {"rebuild.spare_writes", "count"},
    {"rebuild.yields", "count"},
    {"rebuild.window_sim_s", "s"},
    {"exec.point_s_p50", "s"},
    {"exec.point_s_max", "s"},
    {"exec.pdes_rounds", "count"},
    {"exec.pdes_serial_step_frac", "frac"},
    {"exec.pdes_requests_per_round", "ratio"},
    {"exec.pdes_horizon_log2_median", "log2_ns"},
    {"exec.pdes_speedup", "x"},
    {"governor.step_downs", "count"},
    {"governor.step_ups", "count"},
    {"governor.parks", "count"},
    {"power.energy_idle_frac", "frac"},
    {"power.energy_seek_frac", "frac"},
    {"power.energy_rotation_frac", "frac"},
    {"power.energy_transfer_frac", "frac"},
    {"serve.admitted_frac", "frac"},
    {"serve.spec_cancel_live", "count"},
    {"serve.spec_cancel_stale", "count"},
    {"workload.generate_s", "s"},
    {"verify.host_share", "frac"},
    {"telemetry.trace_overhead", "frac"},
};

using Values = std::map<std::string, double>;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t stream)
{
    const std::uint64_t s = sim::streamSeed(seed, stream);
    return s != 0 ? s : 1; // 0 selects a generator's built-in default
}

/** Sum registry rows by name (counters add across runs). */
void
accumulate(Values &into, const std::vector<telemetry::MetricSample> &rows)
{
    for (const telemetry::MetricSample &m : rows)
        into[m.name] += m.value;
}

using PhaseTotals = std::array<double, telemetry::kSpanKindCount>;

void
accumulate(PhaseTotals &into, const telemetry::TraceData &trace)
{
    for (std::size_t k = 0; k < telemetry::kSpanKindCount; ++k)
        into[k] += sim::ticksToMs(trace.phases[k].ticks);
}

/** Per-layer values every workload derives the same way from summed
 *  registry counters, phase totals and energy. */
void
commonLayers(Values &L, const Values &c, const PhaseTotals &phase_ms,
             double requests, double reads,
             const power::PowerBreakdown &energy)
{
    auto get = [&c](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };
    const double sel = get("sched.selections");
    L["sched.priced_per_selection"] =
        ratio(get("sched.candidates_priced"), sel);
    L["sched.pruned_per_selection"] =
        ratio(get("sched.candidates_pruned"), sel);
    L["disk.media_accesses_per_request"] =
        ratio(get("disk.media_accesses"), requests);
    L["disk.zero_latency_hits"] = get("disk.zero_latency_hits");
    L["disk.channel_blocks"] = get("disk.channel_blocks");
    using telemetry::SpanKind;
    const std::pair<const char *, SpanKind> phases[] = {
        {"disk.sim_host_queue_ms", SpanKind::HostQueue},
        {"disk.sim_seek_ms", SpanKind::Seek},
        {"disk.sim_rot_wait_ms", SpanKind::RotWait},
        {"disk.sim_channel_wait_ms", SpanKind::ChannelWait},
        {"disk.sim_transfer_ms", SpanKind::Transfer},
        {"disk.sim_spin_up_ms", SpanKind::SpinUp},
    };
    for (const auto &[name, kind] : phases)
        L[name] = ratio(phase_ms[static_cast<std::size_t>(kind)],
                        requests);
    L["cache.read_hit_ratio"] =
        ratio(get("cache.read_hits"),
              get("cache.read_hits") + get("cache.read_misses"));
    L["cache.write_absorbed_frac"] =
        ratio(get("cache.write_absorbed"),
              get("cache.write_absorbed") + get("cache.write_through"));
    L["bus.transfers_per_request"] = ratio(get("bus.transfers"), requests);
    L["bus.mb_moved"] = get("bus.bytes_moved") / 1e6;
    L["array.subs_per_request"] = ratio(get("array.sub_requests"),
                                        get("array.logical_requests"));
    L["array.replica_priced_per_read"] =
        ratio(get("array.replica_priced"), reads);
    L["array.replica_ties"] = get("array.replica_ties");
    L["array.dropped_subs"] = get("array.dropped_sub_completions");
    L["rebuild.chunks"] = get("rebuild.chunks");
    L["rebuild.spare_writes"] = get("rebuild.spare_writes");
    L["rebuild.yields"] = get("rebuild.yields");
    L["governor.step_downs"] = get("governor.step_downs");
    L["governor.step_ups"] = get("governor.step_ups");
    L["governor.parks"] = get("governor.parks");
    using stats::DiskMode;
    const double total = energy.totalEnergyJ;
    auto share = [&](DiskMode m) {
        return ratio(energy.energyJ[static_cast<std::size_t>(m)], total);
    };
    L["power.energy_idle_frac"] = share(DiskMode::Idle);
    L["power.energy_seek_frac"] = share(DiskMode::Seek);
    L["power.energy_rotation_frac"] = share(DiskMode::RotWait);
    L["power.energy_transfer_frac"] = share(DiskMode::Transfer);
}

void
emitLayers(Outcome &out, const Values &L)
{
    for (const LayerDef &def : kLayers) {
        const auto it = L.find(def.name);
        out.perLayer.push_back(
            {def.name, it == L.end() ? 0.0 : it->second, def.unit});
    }
}

/** The modelled figures an untraced run reports. */
struct SimFigures
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::uint64_t samples = 0;
    double powerW = 0.0;
    double servedFrac = 0.0;
};

/** One repetition of a timed unit. */
struct RepSample
{
    std::uint64_t digest = 0;
    double seconds = 0.0;
    std::uint64_t allocs = 0;
};

struct Reps
{
    std::vector<double> seconds;
    std::vector<std::uint64_t> allocs;
    std::uint64_t digest = 0;
};

/** Repeat @p once until @p budget_s of host time has passed and at
 *  least kMinTimedReps repetitions ran, running @p between (untimed)
 *  after each; every repetition must reproduce the first one's
 *  digest. */
template <typename Fn, typename Between>
Reps
repeatFor(double budget_s, Outcome &out, Fn &&once, Between &&between)
{
    Reps reps;
    const double start = nowSeconds();
    while (reps.seconds.size() < kMinTimedReps ||
           nowSeconds() - start < budget_s) {
        const RepSample s = once();
        between();
        if (reps.seconds.empty())
            reps.digest = s.digest;
        out.check(s.digest == reps.digest,
                  "digest changed between repetitions of one seed");
        reps.seconds.push_back(s.seconds);
        reps.allocs.push_back(s.allocs);
    }
    return reps;
}

/** Run @p fn(0) .. @p fn(n - 1) on n threads and wait for all. */
template <typename Fn>
void
concurrently(std::size_t n, Fn &&fn)
{
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        threads.emplace_back([&fn, i] { fn(i); });
    for (std::thread &t : threads)
        t.join();
}

/**
 * One set-up round: @p make(log) once on each of @p copies threads side
 * by side, as the timed region runs its copies (a lone set-up's time
 * varied by up to 40% from process to process). Each thread times into
 * its own log, and the logs are absorbed into @p spans. Copy 0's inputs
 * are returned.
 */
template <typename Fn>
auto
setupRound(std::size_t copies, SpanLog &spans, Fn &&make)
{
    using Inputs = decltype(make(spans));
    std::vector<Inputs> made(copies);
    std::vector<SpanLog> logs(copies);
    concurrently(copies, [&](std::size_t c) { made[c] = make(logs[c]); });
    for (const SpanLog &log : logs)
        spans.absorb(log);
    return std::move(made[0]);
}

/** The run's inputs: kSetupWarmupS of untimed set-ups on @p copies
 *  threads, then kSetupRounds timed rounds. */
template <typename Fn>
auto
repeatSetup(std::size_t copies, SpanLog &spans, Fn &&make)
{
    concurrently(copies, [&](std::size_t) {
        SpanLog scratch;
        const double until = nowSeconds() + kSetupWarmupS;
        while (nowSeconds() < until)
            make(scratch);
    });
    for (int round = 1; round < kSetupRounds; ++round)
        setupRound(copies, spans, make);
    return setupRound(copies, spans, make);
}

void
addEndToEnd(Outcome &out, double requests_per_rep, const Reps &reps,
            double setup_s, const SimFigures &sim)
{
    std::vector<double> allocs;
    for (std::uint64_t a : reps.allocs)
        allocs.push_back(static_cast<double>(a) / requests_per_rep);
    out.endToEnd = {
        {"sim_requests_per_s", requests_per_rep / median(reps.seconds),
         "1/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"allocs_per_request", median(allocs), "allocs/req"},
        {"sim_p50_ms", sim.p50Ms, "ms"},
        {"sim_p99_ms", sim.p99Ms, "ms"},
        {"sim_power_w", sim.powerW, "W"},
        {"served_frac", sim.servedFrac, "frac"},
    };
    out.note("timed_reps", reps.seconds.size());
    std::string rep_s;
    for (double s : reps.seconds) {
        if (!rep_s.empty())
            rep_s += ' ';
        rep_s += std::to_string(s);
    }
    out.note("timed_rep_seconds", rep_s);
    out.note("sim_latency_samples", sim.samples);
    out.note("sim_highest_reportable_quantile",
             highestReportableQuantile(sim.samples));
    out.check(tailReportable(0.99, sim.samples),
              "too few latency samples to report p99");
}

std::string
layoutName(array::Layout layout)
{
    switch (layout) {
    case array::Layout::PassThrough:
        return "passthrough";
    case array::Layout::Concat:
        return "concat";
    case array::Layout::Raid0:
        return "raid0";
    case array::Layout::Raid1:
        return "raid1";
    case array::Layout::Raid5:
        return "raid5";
    }
    return "?";
}

std::string
describe(const array::ArrayParams &p)
{
    return layoutName(p.layout) + " x" + std::to_string(p.disks) + " " +
        p.drive.name + " @" + std::to_string(p.drive.rpm) + "rpm";
}

/** Build (and drop) the array of @p params on a scratch calendar. */
std::uint64_t
buildArray(const array::ArrayParams &params)
{
    sim::Simulator scratch;
    array::StorageArray arr(scratch, params);
    return arr.logicalSectors();
}

// ---------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------

Outcome
runPaperSweep(const RunOptions &opts)
{
    Outcome out;
    SpanLog spans;
    const SweepShape shape;

    auto make = [&](SpanLog &log) {
        ScopedSpan setup(log, "setup");
        std::unique_ptr<SweepInputs> made;
        {
            ScopedSpan gen(log, "workload.generate", setup.id());
            made = makeSweepInputs(opts.seed, shape);
        }
        ScopedSpan build(log, "array.build", setup.id());
        for (const exec::SimPoint &p : made->points)
            buildArray(p.config.array);
        return made;
    };
    const std::unique_ptr<SweepInputs> in =
        repeatSetup(opts.threads, spans, make);
    auto setup_round = [&] { setupRound(opts.threads, spans, make); };

    out.note("commercial_requests", shape.commercialRequests);
    out.note("synthetic_requests", shape.syntheticRequests);
    out.note("points", in->points.size());
    out.note("requests_per_rep", in->requests);
    for (std::size_t i = 0; i < in->points.size(); ++i)
        out.note("point." + std::to_string(i),
                 describe(in->points[i].config.array) + " trace " +
                     std::to_string(in->points[i].trace->size()) +
                     " reqs");
    out.note("break_even_point", in->breakEven);
    out.note("sweep_threads", opts.threads);
    out.note("event_loop", "serial per point");
    out.note("checker", "on");

    const double requests = static_cast<double>(in->requests);
    Values L;

    if (!opts.trace) {
        std::vector<core::RunResult> last;
        const Reps reps = repeatFor(opts.seconds, out, [&] {
            ScopedSpan s(spans, "exec.runSimPoints");
            const std::uint64_t a0 = benchjson::allocCount();
            const double t0 = nowSeconds();
            last = exec::runSimPoints(in->points, opts.threads);
            RepSample r;
            r.seconds = nowSeconds() - t0;
            r.allocs = benchjson::allocCount() - a0;
            Digest d;
            for (const core::RunResult &rr : last)
                d.add(digestRunResult(rr));
            r.digest = d.value();
            return r;
        }, setup_round);
        out.digest = reps.digest;
        out.attempted = in->requests * reps.seconds.size();

        std::uint64_t served = 0;
        for (std::size_t i = 0; i < last.size(); ++i) {
            const core::RunResult &r = last[i];
            const std::uint64_t want = in->points[i].trace->size();
            out.check(r.completions == want,
                      "point " + std::to_string(i) + " lost requests");
            out.failed += want > r.completions ? want - r.completions : 0;
            served += r.completions - std::min(r.completions,
                                               r.hardErrors);
        }

        // The break-even point again through the direct runner, which
        // exposes the full response-time sample set (p50) and must
        // agree with the sweep's own result for that point.
        const exec::SimPoint &be = in->points[in->breakEven];
        DirectOptions dopts;
        const DirectRun direct = runDirect(*be.trace, be.config.array, dopts);
        const core::RunResult &ber = last[in->breakEven];
        out.check(direct.completions == ber.completions &&
                      direct.p99Ms == ber.p99ResponseMs &&
                      direct.meanMs == ber.meanResponseMs,
                  "direct runner disagrees with runSimPoints at the "
                  "break-even point");
        out.checkClean(direct.violations, "break-even point");

        SimFigures sim;
        sim.p50Ms = direct.p50Ms;
        sim.p99Ms = ber.p99ResponseMs;
        sim.samples = direct.samples;
        sim.powerW = ber.power.totalAvgW();
        sim.servedFrac = ratio(static_cast<double>(served), requests);
        addEndToEnd(out, requests, reps, median(spans.durations("setup")),
                    sim);
    } else {
        // Three serial passes over the points, one at a time: checker
        // on (the reference), traced, and checker off.
        Values counters;
        PhaseTotals phase_ms{};
        power::PowerBreakdown energy;
        std::vector<double> point_s;
        double on_s = 0.0, traced_s = 0.0, off_s = 0.0;
        double events = 0.0, cancels = 0.0, peak = 0.0, reads = 0.0;
        double media = 0.0, nonzero = 0.0;
        Digest digest;
        // Untimed warm-up, so the first timed pass does not pay the
        // process's first-touch page faults alone.
        runDirect(*in->points[0].trace, in->points[0].config.array,
                  DirectOptions{});
        for (std::size_t i = 0; i < in->points.size(); ++i) {
            const exec::SimPoint &p = in->points[i];
            DirectOptions dopts;
            DirectRun ref;
            {
                ScopedSpan s(spans, "exec.point");
                ref = runDirect(*p.trace, p.config.array, dopts);
            }
            dopts.traced = true;
            DirectRun traced;
            {
                ScopedSpan s(spans, "exec.point.traced");
                traced = runDirect(*p.trace, p.config.array, dopts);
            }
            dopts.traced = false;
            dopts.checker = false;
            DirectRun off;
            {
                ScopedSpan s(spans, "exec.point.checker_off");
                off = runDirect(*p.trace, p.config.array, dopts);
            }
            const std::string tag = "point " + std::to_string(i);
            out.check(ref.completions == ref.requests && ref.drained,
                      tag + " lost requests");
            out.checkClean(ref.violations, tag);
            out.checkClean(traced.violations, tag + " traced");
            out.check(traced.digest == ref.digest,
                      tag + ": tracing changed the result digest");
            out.check(off.digest == ref.digest,
                      tag + ": the checker changed the result digest");
            digest.add(ref.digest);
            point_s.push_back(ref.loopSeconds);
            on_s += ref.loopSeconds;
            traced_s += traced.loopSeconds;
            off_s += off.loopSeconds;
            events += static_cast<double>(ref.eventsFired);
            cancels += static_cast<double>(ref.eventsCancelled);
            peak = std::max(peak, static_cast<double>(ref.peakPending));
            reads += static_cast<double>(ref.reads);
            media += static_cast<double>(ref.mediaAccesses);
            nonzero += static_cast<double>(ref.nonzeroSeeks);
            accumulate(counters, traced.metrics);
            accumulate(phase_ms, traced.trace);
            energy.merge(ref.power);
            out.attempted += ref.requests;
        }
        out.digest = digest.value();

        commonLayers(L, counters, phase_ms, requests, reads, energy);
        L["sim.events_per_request"] = ratio(events, requests);
        L["sim.host_ns_per_event"] = ratio(on_s * 1e9, events);
        L["sim.cancels_per_request"] = ratio(cancels, requests);
        L["sim.peak_pending"] = peak;
        L["disk.nonzero_seek_frac"] = ratio(nonzero, media);
        L["exec.point_s_p50"] = median(point_s);
        L["exec.point_s_max"] =
            *std::max_element(point_s.begin(), point_s.end());
        L["array.build_s"] = median(spans.durations("array.build"));
        L["workload.generate_s"] =
            median(spans.durations("workload.generate"));
        L["verify.host_share"] = 1.0 - ratio(off_s, on_s);
        L["telemetry.trace_overhead"] = ratio(traced_s, on_s) - 1.0;
        emitLayers(out, L);
    }
    if (!opts.spanOut.empty())
        out.check(spans.writeJson(opts.spanOut),
                  "cannot write " + opts.spanOut);
    return out;
}

// ---------------------------------------------------------------
// mirror_rebuild
// ---------------------------------------------------------------

Outcome
runMirrorRebuild(const RunOptions &opts)
{
    Outcome out;
    SpanLog spans;
    const MirrorShape shape;
    const array::ArrayParams params = mirrorArray(shape);

    auto make = [&](SpanLog &log) {
        ScopedSpan setup(log, "setup");
        std::uint64_t logical = 0;
        {
            ScopedSpan build(log, "array.build", setup.id());
            logical = buildArray(params);
        }
        ScopedSpan gen(log, "workload.generate", setup.id());
        return makeMirrorTrace(opts.seed, shape, logical);
    };
    const workload::Trace trace = repeatSetup(opts.threads, spans, make);
    auto setup_round = [&] { setupRound(opts.threads, spans, make); };

    // Member 0 fails a fifth of the way into the arrival span; the
    // rebuild starts shortly after, under foreground traffic.
    FailurePlan plan;
    plan.enabled = true;
    plan.member = 0;
    plan.failAt = static_cast<sim::Tick>(
        static_cast<double>(trace.back().arrival) * shape.failAtFraction);
    plan.rebuildAt = plan.failAt + sim::secondsToTicks(shape.rebuildDelayS);

    out.note("array", describe(params));
    out.note("replica_policy", "positioning");
    out.note("bus", params.useBus);
    out.note("requests", trace.size());
    out.note("inter_arrival_ms", shape.interArrivalMs);
    out.note("read_fraction", 0.6);
    out.note("sequential_fraction", 0.2);
    out.note("member_gb", shape.memberGB);
    out.note("fail_member", plan.member);
    out.note("fail_at_s", sim::ticksToSeconds(plan.failAt));
    out.note("rebuild_at_s", sim::ticksToSeconds(plan.rebuildAt));
    const array::RebuildParams rebuild_defaults;
    out.note("rebuild_chunk_sectors", rebuild_defaults.chunkSectors);
    out.note("rebuild_yield_depth", rebuild_defaults.yieldDepth);
    out.note("event_loop", "serial");
    out.note("checker", "on");

    DirectOptions serial;
    serial.failure = plan;

    auto gate = [&out](const DirectRun &r, const std::string &tag) {
        out.check(r.completions == r.requests && r.drained,
                  tag + ": lost requests");
        out.checkClean(r.violations, tag);
        out.check(r.rebuildStarted && r.rebuild.done,
                  tag + ": the rebuild did not finish");
        out.check(r.rebuild.chunksDone == r.rebuild.spareWrites,
                  tag + ": rebuild chunks != spare writes");
    };

    DirectRun ref;
    {
        ScopedSpan s(spans, "exec.serial_run");
        ref = runDirect(trace, params, serial);
    }
    gate(ref, "serial");
    out.digest = ref.digest;
    const double requests = static_cast<double>(trace.size());
    Values L;

    if (!opts.trace) {
        // One repetition replays the trace once per sweep thread, side
        // by side. A lone replay runs on one core for the whole run, and
        // how fast that core was varied by +-20% from run to run.
        std::vector<DirectRun> copies(opts.threads);
        const Reps reps = repeatFor(opts.seconds, out, [&] {
            ScopedSpan s(spans, "exec.serial_runs");
            const std::uint64_t a0 = benchjson::allocCount();
            const double t0 = nowSeconds();
            concurrently(copies.size(), [&](std::size_t c) {
                copies[c] = runDirect(trace, params, serial);
            });
            RepSample r;
            r.seconds = nowSeconds() - t0;
            r.allocs = benchjson::allocCount() - a0;
            r.digest = copies[0].digest;
            for (const DirectRun &c : copies)
                out.check(c.digest == r.digest,
                          "concurrent replays gave different digests");
            return r;
        }, setup_round);
        const DirectRun &last = copies[0];
        gate(last, "timed");
        out.check(reps.digest == ref.digest,
                  "the timed replays' digest differs from the first run's");
        out.attempted = trace.size() * copies.size() * reps.seconds.size();
        out.failed = last.requests - std::min(last.requests,
                                              last.completions);
        SimFigures sim;
        sim.p50Ms = last.p50Ms;
        sim.p99Ms = last.p99Ms;
        sim.samples = last.samples;
        sim.powerW = last.power.totalAvgW();
        sim.servedFrac = ratio(
            requests - static_cast<double>(last.taintedJoins +
                                           last.hardErrors),
            requests);
        out.note("timed_copies", copies.size());
        addEndToEnd(out, requests * static_cast<double>(copies.size()),
                    reps, median(spans.durations("setup")), sim);
    } else {
        DirectRun run;
        {
            ScopedSpan s(spans, "exec.serial_run");
            run = runDirect(trace, params, serial);
        }
        DirectOptions traced_opts = serial;
        traced_opts.traced = true;
        DirectRun traced;
        {
            ScopedSpan s(spans, "exec.serial_run.traced");
            traced = runDirect(trace, params, traced_opts);
        }
        DirectOptions off_opts = serial;
        off_opts.checker = false;
        DirectRun off;
        {
            ScopedSpan s(spans, "exec.serial_run.checker_off");
            off = runDirect(trace, params, off_opts);
        }
        gate(run, "serial");
        gate(traced, "serial traced");
        out.check(run.digest == ref.digest && traced.digest == ref.digest &&
                      off.digest == ref.digest,
                  "tracing or the checker changed the result digest");
        out.attempted = trace.size();

        // The same run under exec::PdesRun, one worker and
        // min(4, cpu_count) workers, for the exec.pdes_* metrics. PDES
        // leaves the serial result on some seeds of this shape (see
        // README.md), so it is reported beside the gate, not in it.
        DirectOptions pdes_opts = serial;
        pdes_opts.pdesWorkers = 1;
        DirectRun pdes1;
        {
            ScopedSpan s(spans, "exec.pdes_run");
            pdes1 = runDirect(trace, params, pdes_opts);
        }
        pdes_opts.pdesWorkers = opts.workers;
        DirectRun par;
        {
            ScopedSpan s(spans, "exec.pdes_run.parallel");
            par = runDirect(trace, params, pdes_opts);
        }
        out.note("pdes_workers", opts.workers);
        out.note("pdes_1_worker_matches_serial", pdes1.digest == ref.digest);
        out.note("pdes_matches_serial", par.digest == ref.digest);

        Values counters;
        accumulate(counters, traced.metrics);
        PhaseTotals phase_ms{};
        accumulate(phase_ms, traced.trace);
        commonLayers(L, counters, phase_ms, requests,
                     static_cast<double>(run.reads), run.power);
        out.check(L["rebuild.chunks"] == L["rebuild.spare_writes"],
                  "traced rebuild.chunks != rebuild.spare_writes");

        const double events = static_cast<double>(run.eventsFired);
        L["sim.events_per_request"] = ratio(events, requests);
        L["sim.host_ns_per_event"] = ratio(run.loopSeconds * 1e9, events);
        L["sim.cancels_per_request"] =
            ratio(static_cast<double>(run.eventsCancelled), requests);
        L["sim.peak_pending"] = static_cast<double>(run.peakPending);
        L["disk.nonzero_seek_frac"] =
            ratio(static_cast<double>(run.nonzeroSeeks),
                  static_cast<double>(run.mediaAccesses));
        L["array.tainted_joins"] = static_cast<double>(run.taintedJoins);
        L["rebuild.window_sim_s"] = sim::ticksToSeconds(
            run.rebuild.finishedAt - run.rebuild.startedAt);
        const double rounds = static_cast<double>(par.pdesRounds);
        L["exec.pdes_rounds"] = rounds;
        L["exec.pdes_serial_step_frac"] =
            ratio(static_cast<double>(par.pdesSerialSteps), rounds);
        L["exec.pdes_requests_per_round"] = ratio(requests, rounds);
        L["exec.pdes_horizon_log2_median"] = par.pdesHorizonLog2Median;
        L["exec.pdes_speedup"] = ratio(run.loopSeconds, par.loopSeconds);
        L["exec.point_s_p50"] = run.loopSeconds; // the run is one point
        L["exec.point_s_max"] = run.loopSeconds;
        L["array.build_s"] = median(spans.durations("array.build"));
        L["workload.generate_s"] =
            median(spans.durations("workload.generate"));
        L["verify.host_share"] =
            1.0 - ratio(off.loopSeconds, run.loopSeconds);
        L["telemetry.trace_overhead"] =
            ratio(traced.loopSeconds, run.loopSeconds) - 1.0;
        emitLayers(out, L);
    }
    if (!opts.spanOut.empty())
        out.check(spans.writeJson(opts.spanOut),
                  "cannot write " + opts.spanOut);
    return out;
}

// ---------------------------------------------------------------
// serve_diurnal
// ---------------------------------------------------------------

/** Serving-run invariants: nothing admitted is lost, and the
 *  speculative-submission books close exactly. */
void
gateServe(Outcome &out, const serve::ServeResult &r)
{
    const serve::ServeTotals &t = r.totals;
    out.check(t.arrivals == t.admitted + t.denied(),
              "serve: arrivals != admitted + denied");
    out.check(t.completions == t.admitted,
              "serve: admitted requests lost");
    out.check(t.specCompleted == t.specSubmitted,
              "serve: speculative requests lost");
    out.check(t.specArmed == t.specCancelledLive + t.specCancelledStale,
              "serve: speculative cancel accounting does not close");
}

Outcome
runServeDiurnal(const RunOptions &opts)
{
    Outcome out;
    SpanLog spans;
    const ServeShape shape;
    const core::SystemConfig system = serveSystem();

    // Set-up: build the array, then make the parameters and the seeded
    // sessions; runService builds those itself, so a run that stops a
    // millisecond in measures it.
    auto make = [&](SpanLog &log) {
        ScopedSpan setup(log, "setup");
        {
            ScopedSpan build(log, "array.build", setup.id());
            buildArray(system.array);
        }
        ScopedSpan gen(log, "workload.generate", setup.id());
        serve::ServeParams made = makeServeParams(opts.seed, shape);
        serve::ServeParams probe = made;
        probe.durationSeconds = 1e-3;
        probe.warmupSeconds = 0.0;
        probe.snapshotPeriodMs = 0.0;
        serve::runService(system, probe);
        return made;
    };
    const serve::ServeParams params = repeatSetup(opts.threads, spans, make);
    auto setup_round = [&] { setupRound(opts.threads, spans, make); };

    const power::GovernorParams &g = system.array.governor;
    out.note("array", describe(system.array));
    out.note("bus", system.array.useBus);
    out.note("tenants", params.tenants);
    out.note("open_fraction", params.openFraction);
    out.note("open_rate_per_s", params.openRatePerSec);
    out.note("think_ms", params.thinkMs);
    out.note("duration_s", params.durationSeconds);
    out.note("warmup_s", params.warmupSeconds);
    out.note("diurnal_period_s", params.modulation.diurnalPeriodSec);
    out.note("diurnal_amplitude", params.modulation.diurnalAmplitude);
    out.note("burst_period_s", params.modulation.burstPeriodSec);
    out.note("burst_duration_s", params.modulation.burstDurationSec);
    out.note("burst_multiplier", params.modulation.burstMultiplier);
    out.note("slo_p99_ms", params.slo.p99TargetMs);
    out.note("slo_window_samples", params.slo.windowSamples);
    out.note("spec_batch", params.spec.batch);
    out.note("spec_start_prob", params.spec.startProb);
    out.note("max_in_flight", params.admission.maxInFlight);
    out.note("bucket_rate_per_s", params.admission.bucket.ratePerSec);
    out.note("wheel_granularity_ms", params.wheelGranularityMs);
    out.note("serve_seed", params.seed);
    out.note("governor_window_ms", g.windowMs);
    out.note("governor_slo_ms", g.sloP99Ms);
    out.note("governor_busy_high", g.busyHigh);
    out.note("governor_busy_low", g.busyLow);
    out.note("governor_guard", g.guardFraction);
    out.note("governor_dwell_ms", g.minDwellMs);
    out.note("governor_park_keep_arms", g.parkKeepArms);
    out.note("event_loop", "serial, one thread per copy");
    out.note("checker", "on");

    // One checked serving run; the checker records violations instead
    // of stopping the process so the gate can report them. It touches
    // nothing shared, so copies may run side by side.
    struct ServeRun
    {
        serve::ServeResult result;
        std::vector<std::string> violations;
        double seconds = 0.0;
    };
    auto serveOnce = [&system](const serve::ServeParams &p) {
        ServeRun run;
        verify::InvariantChecker checker(verify::FailMode::Record);
        verify::VerifyScope scope(&checker);
        const double t0 = nowSeconds();
        run.result = serve::runService(system, p);
        run.seconds = nowSeconds() - t0;
        checker.finalize();
        run.violations = checker.violations();
        return run;
    };
    auto gate = [&out](const ServeRun &run) {
        out.checkClean(run.violations, "serve");
        gateServe(out, run.result);
    };
    auto requestsOf = [](const serve::ServeResult &r) {
        return r.totals.completions + r.totals.specCompleted;
    };

    Values L;
    if (!opts.trace) {
        // One repetition serves once per sweep thread, side by side. A
        // lone run stays on one core for the whole run, and how fast
        // that core was varied by +-20% from run to run.
        std::vector<ServeRun> copies(opts.threads);
        const Reps reps = repeatFor(opts.seconds, out, [&] {
            ScopedSpan s(spans, "serve.runService");
            const std::uint64_t a0 = benchjson::allocCount();
            const double t0 = nowSeconds();
            concurrently(copies.size(), [&](std::size_t c) {
                copies[c] = serveOnce(params);
            });
            RepSample r;
            r.seconds = nowSeconds() - t0;
            r.allocs = benchjson::allocCount() - a0;
            r.digest = digestServeResult(copies[0].result);
            for (const ServeRun &c : copies) {
                gate(c);
                out.check(digestServeResult(c.result) == r.digest,
                          "concurrent serving runs gave different digests");
            }
            return r;
        }, setup_round);
        const serve::ServeResult &last = copies[0].result;
        out.digest = reps.digest;
        out.note("timed_copies", copies.size());
        const double requests =
            static_cast<double>(requestsOf(last) * copies.size());
        out.attempted = requestsOf(last) * copies.size() *
            reps.seconds.size();
        SimFigures sim;
        std::vector<double> p50s;
        for (const serve::ServeSnapshot &snap : last.snapshots)
            if (snap.simSeconds > params.warmupSeconds) {
                p50s.push_back(snap.p50Ms);
                sim.samples += snap.completions;
            }
        sim.p50Ms = median(p50s);
        sim.p99Ms = last.steadyP99Ms;
        sim.powerW = last.power.totalAvgW();
        sim.servedFrac = 1.0 - last.denyFraction;
        addEndToEnd(out, requests, reps, median(spans.durations("setup")),
                    sim);
    } else {
        // Untimed warm-up: the first run pays first-touch page faults.
        serveOnce(params);
        ServeRun on;
        {
            ScopedSpan s(spans, "serve.runService");
            on = serveOnce(params);
        }
        gate(on);
        const serve::ServeResult &ref = on.result;
        const double on_s = on.seconds;
        serve::ServeParams traced_params = params;
        traced_params.captureMetricDeltas = true;
        telemetry::TraceOptions topts;
        topts.enabled = true;
        topts.ringCapacity = kTraceRing;
        telemetry::Tracer tracer(topts);
        ServeRun traced_run;
        {
            ScopedSpan s(spans, "serve.runService.traced");
            telemetry::TraceScope scope(&tracer);
            traced_run = serveOnce(traced_params);
        }
        gate(traced_run);
        const serve::ServeResult &traced = traced_run.result;
        const double traced_s = traced_run.seconds;
        out.digest = digestServeResult(ref);
        out.check(digestServeResult(traced) == out.digest,
                  "tracing changed the result digest");
        out.attempted = requestsOf(ref);

        Values counters;
        for (const serve::ServeSnapshot &snap : traced.snapshots)
            accumulate(counters, snap.metricDelta);
        PhaseTotals phase_ms{};
        accumulate(phase_ms, tracer.finish());
        const double requests = static_cast<double>(requestsOf(ref));
        // Logical reads are not reported by the serving loop; the
        // replica metric is RAID-1 only, so none are needed here.
        commonLayers(L, counters, phase_ms, requests, 0.0, ref.power);
        out.check(L["governor.step_downs"] > 0.0,
                  "the governor never stepped down");
        L["sim.cancels_per_request"] =
            ratio(static_cast<double>(ref.eventsCancelled), requests);
        L["sim.peak_pending"] = static_cast<double>(ref.peakPendingEvents);
        L["serve.admitted_frac"] =
            ratio(static_cast<double>(ref.totals.admitted),
                  static_cast<double>(ref.totals.arrivals));
        L["serve.spec_cancel_live"] =
            static_cast<double>(ref.totals.specCancelledLive);
        L["serve.spec_cancel_stale"] =
            static_cast<double>(ref.totals.specCancelledStale);
        L["array.build_s"] = median(spans.durations("array.build"));
        L["workload.generate_s"] =
            median(spans.durations("workload.generate"));
        L["telemetry.trace_overhead"] = ratio(traced_s, on_s) - 1.0;
        L["exec.point_s_p50"] = on_s; // the run is one point
        L["exec.point_s_max"] = on_s;
        emitLayers(out, L);
    }
    if (!opts.spanOut.empty())
        out.check(spans.writeJson(opts.spanOut),
                  "cannot write " + opts.spanOut);
    return out;
}

/** Direct-run feed: one calendar event per arrival, 8-byte capture. */
struct Feed
{
    const workload::Trace *trace = nullptr;
    sim::Simulator *simul = nullptr;
    array::StorageArray *arr = nullptr;
    std::size_t next = 0;

    void
    fire()
    {
        const workload::IoRequest &req = (*trace)[next];
        ++next;
        // Same order as core::runTrace: schedule the next arrival,
        // then submit, so same-tick events keep the same sequence.
        if (next < trace->size()) {
            Feed *self = this;
            simul->schedule((*trace)[next].arrival, [self] { self->fire(); });
        }
        arr->submit(req);
    }
};

void
digestDrive(Digest &d, const disk::DriveStats &s)
{
    const std::uint64_t counts[] = {
        s.arrivals,          s.completions,    s.reads,
        s.cacheHits,         s.mediaAccesses,  s.nonzeroSeeks,
        s.destages,          s.backgroundCompletions,
        s.zeroLatencyHits,   s.coalescedRequests,
        s.mediaRetries,      s.hardErrors,     s.spinDowns,
        s.spinUps,           s.rpmShifts,      s.armParks,
        s.armUnparks,
    };
    for (std::uint64_t c : counts)
        d.add(c);
    for (std::uint64_t c : s.armAccesses)
        d.add(c);
    addSampleSet(d, s.responseMs, 0);
    addSampleSet(d, s.seekMs, 0);
    addSampleSet(d, s.rotMs, 0);
    addHistogram(d, s.responseHist);
    addHistogram(d, s.rotHist);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "mirror_rebuild", "serve_diurnal"};
    return names;
}

Outcome
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "paper_sweep")
        return runPaperSweep(opts);
    if (opts.workload == "mirror_rebuild")
        return runMirrorRebuild(opts);
    if (opts.workload == "serve_diurnal")
        return runServeDiurnal(opts);
    throw std::invalid_argument("unknown workload: " + opts.workload);
}

std::unique_ptr<SweepInputs>
makeSweepInputs(std::uint64_t seed, const SweepShape &shape)
{
    auto in = std::make_unique<SweepInputs>();
    const std::vector<workload::Commercial> &kinds =
        workload::allCommercial();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        workload::CommercialParams p;
        p.kind = kinds[k];
        p.requests = shape.commercialRequests;
        p.seed = inputSeed(seed, k);
        in->commercial.push_back(workload::generateCommercial(p));
    }
    const double inter_arrivals_ms[] = {4.0, 1.0};
    for (std::size_t i = 0; i < 2; ++i) {
        workload::SyntheticParams p;
        p.requests = shape.syntheticRequests;
        p.meanInterArrivalMs = inter_arrivals_ms[i];
        p.readFraction = 0.6;
        p.sequentialFraction = 0.2;
        // Figure 8's fixed 700 GB dataset.
        p.addressSpaceSectors = 700ULL * 1000 * 1000 * 1000 / 512;
        p.seed = inputSeed(seed, 16 + i);
        in->synthetic.push_back(workload::generateSynthetic(p));
    }

    auto add = [&in](const workload::Trace &trace,
                     core::SystemConfig config) {
        config.pdesWorkers = 0; // serial event loop per point
        in->points.push_back({&trace, std::move(config)});
        in->requests += trace.size();
    };
    // The pool takes points in order, so the costliest (Figure 8's,
    // each 2-3x a Figures 5/7 point) go first and the short ones fill
    // the tail: the sweep's makespan then varies less with which
    // thread a noisy core slows.
    //
    // Figure 8's break-even triples: conventional, SA(2), SA(4)
    // RAID-0 arrays of equal 90th-percentile response time.
    struct Tier
    {
        std::uint32_t conv, sa2, sa4;
    };
    const Tier tiers[] = {{8, 4, 2}, {16, 8, 4}};
    for (std::size_t i = 0; i < 2; ++i) {
        const std::pair<std::uint32_t, std::uint32_t> arrays[] = {
            {1, tiers[i].conv}, {2, tiers[i].sa2}, {4, tiers[i].sa4}};
        for (const auto &[arms, disks] : arrays) {
            disk::DriveSpec drive = disk::barracudaEs750();
            if (arms > 1)
                drive = disk::makeIntraDiskParallel(drive, arms);
            add(in->synthetic[i],
                core::makeRaid0System(drive.name, drive, disks));
        }
    }
    in->breakEven = in->points.size() - 1; // 4x SA(4) at 1 ms

    // Figures 5/7: every generator on HC-SD (= SA(1)), SA(2) and
    // SA(4), plus Websearch on SA(4) at Figure 7's 5200 RPM.
    for (std::size_t k = 0; k < kinds.size(); ++k)
        for (std::uint32_t arms : {1u, 2u, 4u})
            add(in->commercial[k], core::makeSaSystem(kinds[k], arms));
    add(in->commercial[1], core::makeSaSystem(kinds[1], 4, 5200));
    return in;
}

array::ArrayParams
mirrorArray(const MirrorShape &shape)
{
    array::ArrayParams p;
    p.layout = array::Layout::Raid1;
    p.disks = shape.disks;
    p.drive = disk::makeIntraDiskParallel(
        disk::enterpriseDrive(shape.memberGB, 10000, 2), 4);
    p.replica = array::ReplicaPolicy::Positioning;
    p.useBus = true;
    return p;
}

workload::Trace
makeMirrorTrace(std::uint64_t seed, const MirrorShape &shape,
                std::uint64_t logical_sectors)
{
    workload::SyntheticParams p;
    p.requests = shape.requests;
    p.meanInterArrivalMs = shape.interArrivalMs;
    p.readFraction = 0.6;
    p.sequentialFraction = 0.2;
    // Whole stripe rows only: the RAID-1 layout maps the trailing
    // partial stripe of logicalSectors() past the members' last sector
    // (the checker reports it as a fan-out range violation).
    const std::uint64_t row =
        std::uint64_t{mirrorArray(shape).stripeSectors} * (shape.disks / 2);
    p.addressSpaceSectors = logical_sectors / row * row;
    p.seed = inputSeed(seed, 32);
    return workload::generateSynthetic(p);
}

core::SystemConfig
serveSystem()
{
    disk::DriveSpec drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 4);
    // Give arm parking something to shed, and DRPM-class ramps.
    drive.power.actuatorIdleW = 0.35;
    drive.rpmShiftMs = 150.0;
    core::SystemConfig config =
        core::makeRaid0System("4x " + drive.name, drive, 4);
    config.array.useBus = true;
    power::GovernorParams &g = config.array.governor;
    g.enabled = true;
    g.sloP99Ms = 120.0;
    g.windowMs = 1000.0;
    g.busyHigh = 0.55;
    g.busyLow = 0.4;
    // Step down below a 42 ms window p99. With 0.25 (30 ms) the
    // governor never stepped down on about one seed in three (seeds 2,
    // 4001 and 5001); with 0.35 it did 77-101 times on each of 12.
    g.guardFraction = 0.35;
    g.minDwellMs = 2500.0;
    g.rpmLevels = {7200, 4200};
    g.parkKeepArms = 2;
    config.pdesWorkers = 0;
    return config;
}

serve::ServeParams
makeServeParams(std::uint64_t seed, const ServeShape &shape)
{
    serve::ServeParams p;
    p.tenants = shape.tenants;
    // Mostly closed-loop tenants with long thinks give a steady base
    // load; the open tenth carries the day/night swing and the bursts.
    p.openFraction = 0.1;
    p.thinkMs = 1800000.0;
    p.openRatePerSec =
        200.0 / (static_cast<double>(shape.tenants) * p.openFraction);
    p.readFraction = 0.7;
    p.minSectors = 8;
    p.maxSectors = 64;
    p.durationSeconds = shape.durationS;
    p.warmupSeconds = shape.durationS / 10.0;
    p.modulation.diurnalPeriodSec = shape.durationS;
    p.modulation.diurnalAmplitude = 0.85;
    p.modulation.burstPeriodSec = shape.durationS / 4.0;
    p.modulation.burstDurationSec = shape.durationS / 40.0;
    p.modulation.burstMultiplier = 1.25;
    p.slo.p99TargetMs = 120.0;
    p.slo.windowSamples = 256;
    p.wheelGranularityMs = 100.0;
    p.seed = inputSeed(seed, 48);
    return p;
}

DirectRun
runDirect(const workload::Trace &trace, const array::ArrayParams &params,
          const DirectOptions &opts)
{
    DirectRun out;
    out.requests = trace.size();
    for (const workload::IoRequest &r : trace)
        out.reads += r.isRead ? 1 : 0;

    // Telemetry currents go up before anything is built: modules take
    // their counter handles at construction.
    telemetry::TraceOptions topts;
    topts.enabled = opts.traced;
    topts.ringCapacity = kTraceRing;
    std::unique_ptr<telemetry::Registry> registry;
    std::unique_ptr<telemetry::Tracer> tracer;
    std::unique_ptr<telemetry::RegistryScope> registry_scope;
    std::unique_ptr<telemetry::TraceScope> trace_scope;
    if (opts.traced) {
        registry = std::make_unique<telemetry::Registry>();
        tracer = std::make_unique<telemetry::Tracer>(topts);
        registry_scope =
            std::make_unique<telemetry::RegistryScope>(registry.get());
        trace_scope = std::make_unique<telemetry::TraceScope>(tracer.get());
    }
    std::unique_ptr<verify::InvariantChecker> checker;
    std::unique_ptr<verify::VerifyScope> verify_scope;
    if (opts.checker) {
        checker = std::make_unique<verify::InvariantChecker>(
            verify::FailMode::Record);
        verify_scope = std::make_unique<verify::VerifyScope>(checker.get());
    }

    std::unique_ptr<exec::PdesRun> prun;
    if (opts.pdesWorkers > 0)
        prun = std::make_unique<exec::PdesRun>(params, opts.pdesWorkers,
                                               topts);
    sim::Simulator serial_sim;
    sim::Simulator &simul = prun ? prun->coordSim() : serial_sim;
    array::StorageArray arr(simul, params, nullptr, prun.get());
    if (prun)
        prun->setArray(&arr);
    if (opts.failure.enabled) {
        arr.scheduleFailDisk(opts.failure.member, opts.failure.failAt);
        arr.scheduleStartRebuild(opts.failure.member,
                                 opts.failure.rebuildAt,
                                 array::RebuildParams{});
    }
    Feed feed{&trace, &simul, &arr, 0};
    if (!trace.empty()) {
        Feed *f = &feed;
        simul.schedule(trace.front().arrival, [f] { f->fire(); });
    }

    const std::uint64_t a0 = benchjson::allocCount();
    const double t0 = nowSeconds();
    if (prun)
        prun->run();
    else
        simul.run();
    out.loopSeconds = nowSeconds() - t0;
    out.loopAllocs = benchjson::allocCount() - a0;

    if (checker) {
        checker->finalize();
        out.violations = checker->violations();
    }
    arr.sealStats();
    out.drained = arr.idle();

    const array::ArrayStats &st = arr.stats();
    out.completions = st.logicalCompletions;
    out.taintedJoins = st.taintedJoins;
    out.droppedSubs = st.droppedSubCompletions;
    out.samples = st.responseMs.count();
    out.p50Ms = st.responseMs.quantile(0.5);
    out.p99Ms = st.responseMs.p99();
    out.meanMs = st.responseMs.mean();
    out.power = arr.finishPower();
    for (std::uint32_t i = 0; i < arr.diskCount(); ++i) {
        const disk::DriveStats &ds = arr.diskAt(i).stats();
        out.hardErrors += ds.hardErrors;
        out.mediaAccesses += ds.mediaAccesses;
        out.nonzeroSeeks += ds.nonzeroSeeks;
    }
    if (const array::RebuildEngine *rb = arr.rebuild()) {
        out.rebuildStarted = true;
        out.rebuild = rb->progress();
    }
    out.eventsFired = prun ? prun->eventsFired() : simul.eventsFired();
    out.eventsCancelled =
        prun ? prun->eventsCancelled() : simul.eventsCancelled();
    out.peakPending = prun ? prun->peakPending() : simul.peakPending();
    if (prun) {
        out.pdesRounds = prun->rounds();
        out.pdesSerialSteps = prun->serialSteps();
        const std::uint64_t *hist = prun->horizonWidthHist();
        std::uint64_t total = 0;
        for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b)
            total += hist[b];
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < exec::PdesRun::kHorizonBuckets; ++b) {
            seen += hist[b];
            if (total != 0 && seen * 2 >= total) {
                out.pdesHorizonLog2Median = static_cast<double>(b);
                break;
            }
        }
    }
    if (opts.traced) {
        out.metrics = registry->snapshot();
        out.trace = prun ? prun->mergedTrace(*tracer) : tracer->finish();
    }

    // Whole-result digest: mode-independent statistics only (kernel
    // and engine counters legitimately differ between serial and
    // PDES runs). Every response sample is hashed; rotational latency
    // contributes its moments and histogram but no quantiles: no
    // public result reports them, and once the set passes its
    // reservoir capacity the retained subset depends on the order of
    // same-tick completions on different drives, which PDES replays
    // in drive-id order.
    Digest d;
    d.add(out.requests);
    d.add(out.completions);
    d.add(out.taintedJoins);
    d.add(out.droppedSubs);
    addSampleSet(d, st.responseMs, kEverySample);
    addSampleSet(d, st.rotMs, 0);
    addHistogram(d, st.responseHist);
    addHistogram(d, st.rotHist);
    addPower(d, out.power);
    for (std::uint32_t i = 0; i < arr.diskCount(); ++i)
        digestDrive(d, arr.diskAt(i).stats());
    const array::RebuildProgress &rp = out.rebuild;
    const std::uint64_t rebuild_fields[] = {
        rp.done ? 1u : 0u, rp.chunksDone, rp.chunksTotal, rp.readSubs,
        rp.spareWrites,    rp.yields,     rp.startedAt,   rp.finishedAt,
    };
    for (std::uint64_t v : rebuild_fields)
        d.add(v);
    out.digest = d.value();
    return out;
}

std::uint64_t
digestRunResult(const core::RunResult &r)
{
    Digest d;
    d.add(r.system);
    d.add(r.requests);
    d.add(r.completions);
    d.add(r.wallSeconds);
    addHistogram(d, r.responseHist);
    addHistogram(d, r.rotHist);
    d.add(r.meanResponseMs);
    d.add(r.p90ResponseMs);
    d.add(r.p99ResponseMs);
    d.add(r.meanRotMs);
    addPower(d, r.power);
    d.add(r.cacheHits);
    d.add(r.mediaAccesses);
    d.add(r.mediaRetries);
    d.add(r.hardErrors);
    d.add(r.nonzeroSeekFraction);
    d.add(r.throughputIops);
    return d.value();
}

std::uint64_t
digestServeResult(const serve::ServeResult &r)
{
    Digest d;
    d.add(r.system);
    d.add(r.tenants);
    const serve::ServeTotals &t = r.totals;
    const std::uint64_t totals[] = {
        t.arrivals,          t.admitted,          t.deniedBucket,
        t.deniedInFlight,    t.completions,       t.specArmed,
        t.specSubmitted,     t.specCancelledLive, t.specCancelledStale,
        t.specSuppressed,    t.specCompleted,
    };
    for (std::uint64_t v : totals)
        d.add(v);
    d.add(r.simSeconds);
    d.add(r.p50Ms);
    d.add(r.p99Ms);
    d.add(r.steadyP99Ms);
    d.add(static_cast<std::uint64_t>(r.sloMet));
    d.add(r.denyFraction);
    d.add(r.eventsCancelled);
    d.add(r.staleCancels);
    d.add(static_cast<std::uint64_t>(r.peakPendingEvents));
    addPower(d, r.power);
    for (const serve::ServeSnapshot &s : r.snapshots) {
        const std::uint64_t counts[] = {
            s.index,          s.arrivals,          s.admitted,
            s.denied,         s.completions,       s.specSubmitted,
            s.specCancelledLive, s.specCancelledStale, s.inFlight,
            s.wheelScheduled, static_cast<std::uint64_t>(s.sloOk),
        };
        for (std::uint64_t v : counts)
            d.add(v);
        d.add(s.simSeconds);
        d.add(s.p50Ms);
        d.add(s.p99Ms);
        d.add(s.loadFactor);
    }
    return d.value();
}

} // namespace perfbench
} // namespace idp
