/**
 * @file
 * Telemetry subsystem tests: span ring semantics, sampling, registry
 * snapshots, per-run trace capture, Chrome-trace export shape, and
 * the sweep-engine determinism contract with tracing enabled.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "exec/fork_join.hh"
#include "telemetry/ring.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_export.hh"
#include "workload/synthetic.hh"

// Tests below that exercise the in-simulator hooks only make sense
// when the hooks are compiled in.
#define REQUIRE_TELEMETRY()                                              \
    if (!idp::telemetry::kCompiledIn)                                    \
    GTEST_SKIP() << "built with IDP_TELEMETRY=OFF"

namespace {

using namespace idp;

telemetry::Span
makeSpan(std::uint64_t id, sim::Tick begin, sim::Tick end,
         telemetry::SpanKind kind = telemetry::SpanKind::Seek)
{
    telemetry::Span span;
    span.id = id;
    span.begin = begin;
    span.end = end;
    span.kind = kind;
    return span;
}

bool
sameSpans(const std::vector<telemetry::Span> &a,
          const std::vector<telemetry::Span> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].begin != b[i].begin ||
            a[i].end != b[i].end || a[i].kind != b[i].kind ||
            a[i].dev != b[i].dev || a[i].arm != b[i].arm)
            return false;
    }
    return true;
}

TEST(SpanRing, FillsThenOverwritesOldest)
{
    telemetry::SpanRing ring(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        ring.push(makeSpan(i, i * 10, i * 10 + 5));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);

    const auto spans = ring.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest surviving span first: ids 2, 3, 4, 5.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].id, i + 2);
}

TEST(SpanRing, PartialFillKeepsInsertionOrder)
{
    telemetry::SpanRing ring(8);
    for (std::uint64_t i = 0; i < 3; ++i)
        ring.push(makeSpan(i, i, i + 1));
    EXPECT_EQ(ring.dropped(), 0u);
    const auto spans = ring.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(spans[i].id, i);
}

TEST(Tracer, SamplingRetainsEveryNthButCountsAll)
{
    telemetry::TraceOptions opts;
    opts.enabled = true;
    opts.sampleEvery = 3;
    telemetry::Tracer tracer(opts);
    for (std::uint64_t i = 0; i < 12; ++i)
        tracer.record(
            makeSpan(i, 0, 100, telemetry::SpanKind::RotWait));

    const telemetry::TraceData data = tracer.finish();
    // Exact accumulation is sampling-blind...
    EXPECT_EQ(data.phase(telemetry::SpanKind::RotWait).count, 12u);
    EXPECT_EQ(data.phase(telemetry::SpanKind::RotWait).ticks, 1200u);
    // ...but only ids 0, 3, 6, 9 are retained for export.
    ASSERT_EQ(data.spans.size(), 4u);
    for (const auto &span : data.spans)
        EXPECT_EQ(span.id % 3, 0u);
}

TEST(Tracer, MeanAndTotalMs)
{
    telemetry::TraceOptions opts;
    opts.enabled = true;
    telemetry::Tracer tracer(opts);
    // 2 ms and 4 ms seeks (ticks are nanoseconds).
    tracer.record(makeSpan(1, 0, 2000000));
    tracer.record(makeSpan(2, 0, 4000000));
    const telemetry::TraceData data = tracer.finish();
    EXPECT_DOUBLE_EQ(data.totalMs(telemetry::SpanKind::Seek), 6.0);
    EXPECT_DOUBLE_EQ(data.meanMs(telemetry::SpanKind::Seek), 3.0);
    EXPECT_DOUBLE_EQ(data.meanMs(telemetry::SpanKind::Transfer), 0.0);
}

TEST(Registry, FindOrCreateAndSnapshotSorted)
{
    telemetry::Registry registry;
    std::uint64_t first = 7;
    std::uint64_t second = 2;
    telemetry::CountSource source;
    source.expose(&registry,
                  {{"z.second", &second}, {"a.first", &first}});
    telemetry::Gauge &g = registry.gauge("m.gauge");
    // Same name returns the same node.
    EXPECT_EQ(&registry.gauge("m.gauge"), &g);
    registry.setGauge("m.gauge", 1.5);

    const auto rows = registry.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "a.first");
    EXPECT_DOUBLE_EQ(rows[0].value, 7.0);
    EXPECT_EQ(rows[1].name, "m.gauge");
    EXPECT_DOUBLE_EQ(rows[1].value, 1.5);
    EXPECT_EQ(rows[2].name, "z.second");
    EXPECT_DOUBLE_EQ(rows[2].value, 2.0);

    std::ostringstream os;
    registry.writeCsv(os);
    EXPECT_EQ(os.str().rfind("metric,value\n", 0), 0u);
    EXPECT_NE(os.str().find("a.first,7"), std::string::npos);
}

TEST(Registry, HistogramFlattensToRows)
{
    telemetry::Registry registry;
    auto &hist = registry.histogram("lat", {1.0, 2.0, 4.0});
    hist.add(0.5);
    hist.add(3.0);
    const auto rows = registry.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "lat.count");
    EXPECT_DOUBLE_EQ(rows[0].value, 2.0);
    EXPECT_EQ(rows[1].name, "lat.max");
    EXPECT_EQ(rows[2].name, "lat.mean");
}

TEST(Hooks, NoopWithoutInstalledCurrents)
{
    ASSERT_EQ(telemetry::Tracer::current(), nullptr);
    ASSERT_EQ(telemetry::Registry::current(), nullptr);
    std::uint64_t n = 1;
    telemetry::CountSource source; // exposes to nothing, retires nothing
    source.expose(telemetry::activeRegistry(), {{"nope", &n}});
    telemetry::emitSpan(1, telemetry::SpanKind::Seek, 0, 10);
    SUCCEED();
}

TEST(Hooks, ScopesInstallAndRestore)
{
    REQUIRE_TELEMETRY();
    telemetry::Registry registry;
    {
        telemetry::RegistryScope scope(&registry);
        EXPECT_EQ(telemetry::Registry::current(), &registry);
        std::uint64_t x = 3;
        telemetry::CountSource source;
        source.expose(telemetry::activeRegistry(), {{"x", &x}});
        const auto rows = registry.snapshot();
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].name, "x");
        EXPECT_DOUBLE_EQ(rows[0].value, 3.0);
    }
    EXPECT_EQ(telemetry::Registry::current(), nullptr);
}

TEST(Registry, SumsSourcesPerNameAndKeepsRetiredCounts)
{
    telemetry::Registry registry;
    std::uint64_t a = 4, b = 10, c = 1;
    auto value = [&registry](const char *name) {
        for (const auto &row : registry.snapshot())
            if (row.name == name)
                return row.value;
        return -1.0;
    };
    telemetry::CountSource live;
    live.expose(&registry, {{"ops", &a}});
    {
        // Rows sharing a name sum, within a source as across them.
        telemetry::CountSource gone;
        gone.expose(&registry, {{"ops", &b}, {"ops", &c}});
        EXPECT_DOUBLE_EQ(value("ops"), 15.0);
        EXPECT_DOUBLE_EQ(registry.snapshotDelta()[0].value, 15.0);
        b = 20;
    }
    // The retired source left its final count (21) behind, so the
    // total never falls and the delta stream sees only new work.
    EXPECT_DOUBLE_EQ(value("ops"), 25.0);
    a = 6;
    EXPECT_DOUBLE_EQ(registry.snapshotDelta()[0].value, 12.0);
    EXPECT_DOUBLE_EQ(value("ops"), 27.0);
}

TEST(Registry, SourceOutlivingItsRegistryDetaches)
{
    std::uint64_t n = 2;
    telemetry::CountSource source;
    {
        telemetry::Registry registry;
        source.expose(&registry, {{"n", &n}});
        ASSERT_EQ(registry.snapshot().size(), 1u);
    }
    SUCCEED(); // destroying the source now must not touch the registry
}

workload::Trace
smallTrace(std::uint64_t requests = 1200)
{
    workload::SyntheticParams wp;
    wp.requests = requests;
    wp.meanInterArrivalMs = 4.0;
    wp.addressSpaceSectors = 2000000;
    wp.readFraction = 0.7;
    return workload::generateSynthetic(wp);
}

core::SystemConfig
smallSystem()
{
    return core::makeRaid0System(
        "tele-sys", disk::enterpriseDrive(2.0, 10000, 2), 2);
}

core::SystemConfig
tracedSystem()
{
    core::SystemConfig config = smallSystem();
    config.tracing.enabled = true;
    return config;
}

TEST(RunTrace, UntracedRunLeavesTelemetryEmpty)
{
    const core::RunResult r = core::runTrace(smallTrace(), smallSystem());
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_TRUE(r.metrics.empty());
}

TEST(RunTrace, TracedRunCarriesSpansAndMetrics)
{
    REQUIRE_TELEMETRY();
    const core::RunResult r =
        core::runTrace(smallTrace(), tracedSystem());
    ASSERT_NE(r.trace, nullptr);
    EXPECT_FALSE(r.trace->spans.empty());

    // A random-read workload on a mechanical drive must show queueing
    // and all three media phases.
    using telemetry::SpanKind;
    EXPECT_GT(r.trace->phase(SpanKind::HostQueue).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::Seek).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::RotWait).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::Transfer).count, 0u);
    EXPECT_GT(r.trace->phase(SpanKind::RaidJoin).count, 0u);
    EXPECT_GT(r.trace->totalMs(SpanKind::RotWait), 0.0);

    // Registry snapshot rode back too, including the kernel gauges.
    ASSERT_FALSE(r.metrics.empty());
    bool found_fired = false, found_media = false, found_sched = false;
    for (const auto &m : r.metrics) {
        if (m.name == "sim.events_fired" && m.value > 0)
            found_fired = true;
        if (m.name == "disk.media_accesses" && m.value > 0)
            found_media = true;
        if (m.name == "sched.selections" && m.value > 0)
            found_sched = true;
    }
    EXPECT_TRUE(found_fired);
    EXPECT_TRUE(found_media);
    EXPECT_TRUE(found_sched);
}

TEST(RunTrace, MetricsReadTheModulesOwnCounts)
{
    REQUIRE_TELEMETRY();
    const core::RunResult r =
        core::runTrace(smallTrace(), tracedSystem());
    auto value = [&r](const char *name) {
        for (const auto &m : r.metrics)
            if (m.name == name)
                return m.value;
        ADD_FAILURE() << "metric " << name << " missing";
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("array.logical_requests"),
                     static_cast<double>(r.requests));
    EXPECT_DOUBLE_EQ(value("disk.media_accesses"),
                     static_cast<double>(r.mediaAccesses));
    // Write-through cache: every disk cache hit is a read hit.
    EXPECT_DOUBLE_EQ(value("disk.cache_hits"),
                     static_cast<double>(r.cacheHits));
    EXPECT_DOUBLE_EQ(value("cache.read_hits"),
                     static_cast<double>(r.cacheHits));
    // Every selection prices at least the request it dispatches.
    EXPECT_GT(value("sched.selections"), 0.0);
    EXPECT_GE(value("sched.candidates_priced"),
              value("sched.selections"));
}

TEST(RunTrace, TracingDoesNotPerturbResults)
{
    const workload::Trace trace = smallTrace();
    const core::RunResult plain = core::runTrace(trace, smallSystem());
    const core::RunResult traced = core::runTrace(trace, tracedSystem());
    EXPECT_EQ(plain.completions, traced.completions);
    EXPECT_DOUBLE_EQ(plain.meanResponseMs, traced.meanResponseMs);
    EXPECT_DOUBLE_EQ(plain.p99ResponseMs, traced.p99ResponseMs);
    EXPECT_EQ(plain.mediaAccesses, traced.mediaAccesses);
    EXPECT_EQ(plain.cacheHits, traced.cacheHits);
}

TEST(RunTrace, ServiceSpansNestInsideResponseWindow)
{
    REQUIRE_TELEMETRY();
    const core::RunResult r =
        core::runTrace(smallTrace(600), tracedSystem());
    ASSERT_NE(r.trace, nullptr);
    for (const auto &span : r.trace->spans) {
        EXPECT_LE(span.begin, span.end);
        // raid_split / raid_join spans carry the join id in `dev` to tie
        // the logical and sub-request id spaces together; every other
        // span's dev is a real disk index.
        if (span.kind != telemetry::SpanKind::RaidSplit &&
            span.kind != telemetry::SpanKind::RaidJoin) {
            EXPECT_LT(span.dev, 2u);
        }
    }
}

TEST(TraceExport, ChromeJsonShape)
{
    REQUIRE_TELEMETRY();
    const core::RunResult r =
        core::runTrace(smallTrace(400), tracedSystem());
    ASSERT_NE(r.trace, nullptr);

    telemetry::TraceBatch batch;
    batch.name = r.system;
    batch.spans = r.trace->spans;
    batch.dropped = r.trace->dropped;

    std::ostringstream os;
    telemetry::writeChromeTrace(os, {batch});
    const std::string json = os.str();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("tele-sys"), std::string::npos);
    EXPECT_NE(json.find("\"seek\""), std::string::npos);

    // Structural sanity: braces and brackets balance.
    long braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch == '"' && (i == 0 || json[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string)
            continue;
        braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
        brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);
}

TEST(TraceExport, MetricsCsvLongForm)
{
    REQUIRE_TELEMETRY();
    core::RunResult r =
        core::runTrace(smallTrace(400), tracedSystem());
    std::ostringstream os;
    core::writeMetricsCsv(os, {r});
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("system,metric,value\n", 0), 0u);
    EXPECT_NE(csv.find("tele-sys,disk.media_accesses,"),
              std::string::npos);
}

TEST(Report, AttributionTableListsPhases)
{
    REQUIRE_TELEMETRY();
    const core::RunResult r =
        core::runTrace(smallTrace(), tracedSystem());
    std::ostringstream os;
    core::printAttribution(os, "attr", {r});
    const std::string out = os.str();
    EXPECT_NE(out.find("seek"), std::string::npos);
    EXPECT_NE(out.find("rot_wait"), std::string::npos);
    EXPECT_NE(out.find("transfer"), std::string::npos);
    EXPECT_NE(out.find("dominant"), std::string::npos);
}

/**
 * The PR-1 determinism contract extended to telemetry: a traced
 * sweep's spans and metrics are identical at any thread count,
 * because each point owns its tracer and results live in
 * index-ordered slots.
 */
TEST(SweepDeterminism, TracedSweepIdenticalAcrossThreadCounts)
{
    REQUIRE_TELEMETRY();
    const auto trace = smallTrace(800);
    auto point_fn = [&trace](std::size_t point) {
        core::SystemConfig config = core::makeRaid0System(
            "sweep-" + std::to_string(point),
            disk::enterpriseDrive(2.0, 10000, 2),
            1 + static_cast<std::uint32_t>(point % 3));
        config.tracing.enabled = true;
        return core::runTrace(trace, config);
    };

    const auto a = exec::parallelMap(6, 1, point_fn);
    const auto b = exec::parallelMap(6, 8, point_fn);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(a[i].trace, nullptr);
        ASSERT_NE(b[i].trace, nullptr);
        EXPECT_TRUE(sameSpans(a[i].trace->spans, b[i].trace->spans))
            << "point " << i;
        EXPECT_EQ(a[i].trace->dropped, b[i].trace->dropped);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            EXPECT_EQ(a[i].metrics[m].name, b[i].metrics[m].name);
            EXPECT_DOUBLE_EQ(a[i].metrics[m].value,
                             b[i].metrics[m].value);
        }
    }
}

} // namespace
