/**
 * @file
 * The benchmark's own tests: digest sensitivity and stability, seeded
 * inputs, the percentile/sample-count rule, and the environment
 * refusal. Build and run with
 *
 *   cmake --build <dir> --target perfbench_tests && <dir>/perfbench_tests
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "workloads.hh"

namespace {

using namespace idp;
using namespace idp::perfbench;

/** A small mirror whose run takes milliseconds. */
MirrorShape
tinyMirror()
{
    MirrorShape shape;
    shape.requests = 3000;
    shape.interArrivalMs = 2.0;
    shape.disks = 4;
    shape.memberGB = 0.05;
    return shape;
}

workload::Trace
tinyMirrorTrace(std::uint64_t seed)
{
    const MirrorShape shape = tinyMirror();
    sim::Simulator scratch;
    array::StorageArray arr(scratch, mirrorArray(shape));
    return makeMirrorTrace(seed, shape, arr.logicalSectors());
}

TEST(Digest, StableAcrossRunsOfOneInput)
{
    const workload::Trace trace = tinyMirrorTrace(7);
    const array::ArrayParams params = mirrorArray(tinyMirror());
    const DirectRun a = runDirect(trace, params, DirectOptions{});
    const DirectRun b = runDirect(trace, params, DirectOptions{});
    EXPECT_EQ(a.completions, trace.size());
    EXPECT_TRUE(a.violations.empty());
    EXPECT_EQ(a.digest, b.digest);
}

TEST(Digest, PdesMatchesSerialWithFailureAndRebuild)
{
    const workload::Trace trace = tinyMirrorTrace(11);
    const array::ArrayParams params = mirrorArray(tinyMirror());
    DirectOptions serial;
    serial.failure.enabled = true;
    serial.failure.failAt = trace.back().arrival / 5;
    serial.failure.rebuildAt = serial.failure.failAt + 1000000;
    DirectOptions pdes = serial;
    pdes.pdesWorkers = 2;
    const DirectRun s = runDirect(trace, params, serial);
    const DirectRun p = runDirect(trace, params, pdes);
    EXPECT_TRUE(s.rebuildStarted);
    EXPECT_EQ(s.rebuild.chunksDone, s.rebuild.spareWrites);
    EXPECT_EQ(s.digest, p.digest);
}

TEST(Digest, ChangesWhenOneCompletionChanges)
{
    workload::Trace trace = tinyMirrorTrace(7);
    const array::ArrayParams params = mirrorArray(tinyMirror());
    const DirectRun a = runDirect(trace, params, DirectOptions{});
    // Move one request's target: its completion time changes.
    trace[trace.size() / 2].lba /= 2;
    const DirectRun b = runDirect(trace, params, DirectOptions{});
    EXPECT_NE(a.digest, b.digest);
}

TEST(Digest, EverySampleCounts)
{
    stats::SampleSet a, b;
    for (int i = 0; i < 1000; ++i) {
        a.add(i * 0.5);
        b.add(i == 500 ? 250.25 : i * 0.5);
    }
    a.seal();
    b.seal();
    Digest da, db, da2;
    addSampleSet(da, a, kEverySample);
    addSampleSet(db, b, kEverySample);
    addSampleSet(da2, a, kEverySample);
    EXPECT_NE(da.value(), db.value());
    EXPECT_EQ(da.value(), da2.value());
}

TEST(Digest, RunResultCoversHistogramBuckets)
{
    core::RunResult r;
    r.responseHist.add(3.0);
    const std::uint64_t before = digestRunResult(r);
    r.responseHist.add(300.0);
    EXPECT_NE(before, digestRunResult(r));
}

TEST(Inputs, SeedDeterminesTheSweep)
{
    SweepShape shape;
    shape.commercialRequests = 2000;
    shape.syntheticRequests = 2000;
    const auto a = makeSweepInputs(42, shape);
    const auto b = makeSweepInputs(42, shape);
    const auto c = makeSweepInputs(43, shape);
    ASSERT_EQ(a->points.size(), b->points.size());
    auto same = [](const workload::Trace &x, const workload::Trace &y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i)
            if (x[i].arrival != y[i].arrival || x[i].lba != y[i].lba ||
                x[i].sectors != y[i].sectors || x[i].isRead != y[i].isRead)
                return false;
        return true;
    };
    for (std::size_t k = 0; k < a->commercial.size(); ++k) {
        EXPECT_TRUE(same(a->commercial[k], b->commercial[k]));
        EXPECT_FALSE(same(a->commercial[k], c->commercial[k]));
    }
    for (std::size_t k = 0; k < a->synthetic.size(); ++k) {
        EXPECT_TRUE(same(a->synthetic[k], b->synthetic[k]));
        EXPECT_FALSE(same(a->synthetic[k], c->synthetic[k]));
    }
    EXPECT_EQ(a->requests, b->requests);
    EXPECT_EQ(a->points[a->breakEven].config.array.disks, 4u);
}

TEST(Inputs, SeedDeterminesMirrorAndServe)
{
    EXPECT_EQ(tinyMirrorTrace(5)[100].lba, tinyMirrorTrace(5)[100].lba);
    EXPECT_NE(tinyMirrorTrace(5)[100].lba, tinyMirrorTrace(6)[100].lba);
    const ServeShape shape;
    EXPECT_EQ(makeServeParams(5, shape).seed,
              makeServeParams(5, shape).seed);
    EXPECT_NE(makeServeParams(5, shape).seed,
              makeServeParams(6, shape).seed);
}

TEST(Percentiles, TenSamplesBeyondTheReportedQuantile)
{
    EXPECT_FALSE(tailReportable(0.99, 999));
    EXPECT_TRUE(tailReportable(0.99, 1000));
    EXPECT_TRUE(tailReportable(0.9, 100));
    EXPECT_FALSE(tailReportable(0.9, 99));
    EXPECT_DOUBLE_EQ(highestReportableQuantile(50), 0.0);
    EXPECT_DOUBLE_EQ(highestReportableQuantile(100), 0.9);
    EXPECT_DOUBLE_EQ(highestReportableQuantile(5000), 0.99);
    EXPECT_NEAR(highestReportableQuantile(20000), 0.999, 1e-12);
}

TEST(Percentiles, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Environment, RefusesBehaviourVariables)
{
    const std::vector<std::string> env = {
        "PATH=/usr/bin",         "IDP_PDES=1",
        "IDP_PDES_WORKERS=4",    "IDP_REPLICA=queue",
        "IDP_SCHED_PRUNE=0",     "IDP_GOVERNOR_SLO_MS=9",
        "IDP_REBUILD_CHUNK=64",  "IDP_SERVE_TENANTS=5",
        "IDP_VERIFY=0",          "IDP_TRACE=1",
        "IDP_TRACE_SAMPLE=10",   "IDP_THREADS=8",
        "IDP_REQUESTS=100",      "IDP_SCALE=2",
        "IDP_LOG=debug",         "IDP_BENCH_OUT=/tmp",
        "IDP_REPLICA_X=1",
    };
    const std::vector<std::string> want = {
        "IDP_GOVERNOR_SLO_MS", "IDP_PDES",       "IDP_PDES_WORKERS",
        "IDP_REBUILD_CHUNK",   "IDP_REPLICA",    "IDP_REQUESTS",
        "IDP_SCALE",           "IDP_SCHED_PRUNE", "IDP_SERVE_TENANTS",
        "IDP_THREADS",         "IDP_TRACE",      "IDP_TRACE_SAMPLE",
        "IDP_VERIFY",
    };
    EXPECT_EQ(refusedVariables(env), want);
    EXPECT_TRUE(refusedVariables({"HOME=/home/user", "IDP_LOG=info"}).empty());
}

} // namespace
