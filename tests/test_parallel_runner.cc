/**
 * @file
 * Determinism-regression harness for the parallel sweep engine.
 *
 * The engine's contract is that thread count is unobservable in the
 * results: the same sweep at 1, 2 and 8 threads must produce
 * bit-identical histograms, power breakdowns and CSV bytes, because
 * every point is a pure function of its seeded inputs and results
 * land in index-ordered slots. These tests pin that contract, plus the
 * fork-join's edge cases: every index once at any width, exception
 * propagation, empty sweeps, more threads than points, and reuse of
 * one instance across many runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "config/env.hh"
#include "core/csv_export.hh"
#include "core/experiment.hh"
#include "exec/fork_join.hh"
#include "exec/sim_sweep.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

// ---------------------------------------------------------------
// Stream-split RNG API
// ---------------------------------------------------------------

TEST(StreamSeed, IsAPureFunctionOfBaseAndIndex)
{
    EXPECT_EQ(sim::streamSeed(42, 7), sim::streamSeed(42, 7));
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(42, 8));
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(43, 7));
    // Sequential indices must not collide with sequential bases.
    EXPECT_NE(sim::streamSeed(42, 7), sim::streamSeed(7, 42));
}

TEST(StreamSeed, ForStreamMatchesManualSeeding)
{
    sim::Rng a = sim::Rng::forStream(123, 4);
    sim::Rng b(sim::streamSeed(123, 4));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(StreamSeed, NeighbouringStreamsDecorrelate)
{
    // Crude independence check: agreement frequency of the low bit
    // across neighbouring streams should be near 1/2.
    sim::Rng a = sim::Rng::forStream(0, 0);
    sim::Rng b = sim::Rng::forStream(0, 1);
    int agree = 0;
    const int n = 4096;
    for (int i = 0; i < n; ++i)
        agree += (a.next() & 1) == (b.next() & 1);
    EXPECT_GT(agree, n / 2 - 200);
    EXPECT_LT(agree, n / 2 + 200);
}

// ---------------------------------------------------------------
// ForkJoin and parallelMap
// ---------------------------------------------------------------

TEST(ForkJoin, RunsEachIndexExactlyOnceAtEveryWidth)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        exec::ForkJoin fork_join(threads);
        EXPECT_EQ(fork_join.threads(), threads);
        // Fewer indices than threads, more, far more.
        for (std::size_t n : {std::size_t{threads - 1},
                              std::size_t{threads + 1},
                              std::size_t{1000}}) {
            SCOPED_TRACE("threads " + std::to_string(threads) + ", n " +
                         std::to_string(n));
            std::vector<std::atomic<int>> calls(n);
            fork_join.run(n, [&calls](std::size_t i) { ++calls[i]; });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(calls[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ForkJoin, EmptyRunReturnsWithoutCalling)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        exec::ForkJoin fork_join(threads);
        std::atomic<int> calls{0};
        fork_join.run(0, [&calls](std::size_t) { ++calls; });
        EXPECT_EQ(calls.load(), 0) << "threads " << threads;
        // The idle helpers still take the next job.
        fork_join.run(threads, [&calls](std::size_t) { ++calls; });
        EXPECT_EQ(calls.load(), static_cast<int>(threads))
            << "threads " << threads;
    }
}

TEST(ForkJoin, SurvivesTenThousandBackToBackRuns)
{
    // The PDES engine's pattern: one instance, one short job per
    // synchronization round.
    exec::ForkJoin fork_join(4);
    std::vector<std::uint64_t> sums(8, 0);
    for (int round = 0; round < 10000; ++round)
        fork_join.run(1 + round % sums.size(),
                      [&sums](std::size_t i) { sums[i] += i + 1; });
    for (std::size_t i = 0; i < sums.size(); ++i)
        EXPECT_EQ(sums[i], (i + 1) * (10000 / sums.size() *
                                      (sums.size() - i)));
}

TEST(ForkJoin, MapResultsLandInIndexOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        const auto out = exec::parallelMap(
            37, threads, [](std::size_t i) { return i * 3; });
        ASSERT_EQ(out.size(), 37u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * 3);
    }
}

TEST(ForkJoin, MapOfNothingIsEmpty)
{
    for (unsigned threads : {1u, 8u}) {
        const auto out = exec::parallelMap(
            0, threads, [](std::size_t) { return 1; });
        EXPECT_TRUE(out.empty());
    }
}

TEST(ForkJoin, MapWithMoreThreadsThanPoints)
{
    const auto out = exec::parallelMap(3, 8, [](std::size_t i) {
        return sim::streamSeed(99, i);
    });
    ASSERT_EQ(out.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(out[i], sim::streamSeed(99, i));
}

TEST(ForkJoin, MapRunsEveryPointThenRethrowsLowestIndexException)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        std::vector<std::atomic<int>> calls(10);
        try {
            exec::parallelMap(10, threads, [&calls](std::size_t i) {
                ++calls[i];
                if (i == 3 || i == 7)
                    throw std::runtime_error("point " +
                                             std::to_string(i));
                return 0;
            });
            FAIL() << "sweep should have thrown";
        } catch (const std::runtime_error &e) {
            // Deterministic choice: the lowest failing index wins,
            // regardless of which thread finished first.
            EXPECT_STREQ(e.what(), "point 3");
        }
        // Every point ran once, the serial width included.
        for (std::size_t i = 0; i < calls.size(); ++i)
            EXPECT_EQ(calls[i].load(), 1) << "point " << i;
    }
}

TEST(ForkJoin, MapSurvivesExceptionAndRunsAgain)
{
    EXPECT_THROW(exec::parallelMap(5, 4,
                                   [](std::size_t) -> int {
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    const auto out =
        exec::parallelMap(5, 4, [](std::size_t i) { return i; });
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[4], 4u);
}

TEST(ForkJoin, HonoursIdpThreadsEnv)
{
    const unsigned three = config::resolveEnv({"IDP_THREADS=3"}).threads;
    EXPECT_EQ(three, 3u);
    EXPECT_EQ(exec::ForkJoin(three).threads(), 3u);
    EXPECT_EQ(config::resolveEnv({"IDP_THREADS=1"}).threads, 1u);
    EXPECT_EQ(config::resolveEnv({}).threads, exec::hardwareThreads());
    // Widths 0 and 1 both leave the caller working alone.
    EXPECT_EQ(exec::ForkJoin(0).threads(), 1u);
}

// ---------------------------------------------------------------
// Bit-identical simulation sweeps across thread counts
// ---------------------------------------------------------------

std::vector<core::RunResult>
runMiniSweep(unsigned threads)
{
    // A realistic mini-sweep: each point generates its own workload
    // from its own RNG stream (seed AND sampled parameters) and
    // simulates a different drive configuration.
    return exec::parallelMap(6, threads, [](std::size_t point) {
        const std::uint64_t seed = sim::streamSeed(0xD15C, point);
        sim::Rng rng(seed);
        workload::SyntheticParams wp;
        wp.requests = 1500;
        wp.seed = seed;
        wp.meanInterArrivalMs = rng.uniform(2.0, 10.0);
        wp.readFraction = rng.uniform(0.4, 0.8);

        const std::uint32_t actuators = 1u << (point % 3);
        disk::DriveSpec drive = disk::barracudaEs750();
        if (actuators > 1)
            drive = disk::makeIntraDiskParallel(drive, actuators);
        const core::SystemConfig config = core::makeRaid0System(
            "SA(" + std::to_string(actuators) + ")#" +
                std::to_string(point),
            drive, 1 + static_cast<std::uint32_t>(point % 2));
        return core::runTrace(workload::generateSynthetic(wp), config);
    });
}

void
expectBitIdentical(const std::vector<core::RunResult> &a,
                   const std::vector<core::RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("sweep point " + std::to_string(i));
        EXPECT_EQ(a[i].system, b[i].system);
        EXPECT_EQ(a[i].requests, b[i].requests);
        EXPECT_EQ(a[i].completions, b[i].completions);

        // Histograms: every bucket count, exactly.
        ASSERT_EQ(a[i].responseHist.buckets(),
                  b[i].responseHist.buckets());
        for (std::size_t bk = 0; bk < a[i].responseHist.buckets();
             ++bk)
            EXPECT_EQ(a[i].responseHist.count(bk),
                      b[i].responseHist.count(bk));
        ASSERT_EQ(a[i].rotHist.buckets(), b[i].rotHist.buckets());
        for (std::size_t bk = 0; bk < a[i].rotHist.buckets(); ++bk)
            EXPECT_EQ(a[i].rotHist.count(bk), b[i].rotHist.count(bk));

        // Scalar stats: bit-exact doubles, not approximate.
        EXPECT_EQ(a[i].meanResponseMs, b[i].meanResponseMs);
        EXPECT_EQ(a[i].p90ResponseMs, b[i].p90ResponseMs);
        EXPECT_EQ(a[i].p99ResponseMs, b[i].p99ResponseMs);
        EXPECT_EQ(a[i].meanRotMs, b[i].meanRotMs);
        EXPECT_EQ(a[i].wallSeconds, b[i].wallSeconds);

        // Power breakdown: per-mode energies, bit-exact.
        for (std::size_t m = 0; m < stats::kNumDiskModes; ++m)
            EXPECT_EQ(a[i].power.energyJ[m], b[i].power.energyJ[m]);
        EXPECT_EQ(a[i].power.totalEnergyJ, b[i].power.totalEnergyJ);
        EXPECT_EQ(a[i].cacheHits, b[i].cacheHits);
        EXPECT_EQ(a[i].mediaAccesses, b[i].mediaAccesses);
        EXPECT_EQ(a[i].mediaRetries, b[i].mediaRetries);
    }
}

std::string
csvBytes(const std::vector<core::RunResult> &results)
{
    std::ostringstream all;
    core::writeSummaryCsv(all, results);
    core::writeCdfCsv(all, results);
    core::writeRotPdfCsv(all, results);
    return all.str();
}

TEST(ParallelDeterminism, SweepIsBitIdenticalAt1_2_8Threads)
{
    const auto serial = runMiniSweep(1);
    const auto two = runMiniSweep(2);
    const auto eight = runMiniSweep(8);
    expectBitIdentical(serial, two);
    expectBitIdentical(serial, eight);

    // And the exported CSVs are byte-stable.
    const std::string bytes = csvBytes(serial);
    EXPECT_EQ(bytes, csvBytes(two));
    EXPECT_EQ(bytes, csvBytes(eight));
    EXPECT_FALSE(bytes.empty());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree)
{
    // Same thread count, two executions: completion order differs,
    // results must not.
    const auto first = runMiniSweep(4);
    const auto second = runMiniSweep(4);
    expectBitIdentical(first, second);
    EXPECT_EQ(csvBytes(first), csvBytes(second));
}

TEST(ParallelDeterminism, RunSystemsMatchesSerialRunTrace)
{
    workload::SyntheticParams wp;
    wp.requests = 1200;
    wp.meanInterArrivalMs = 4.0;
    const auto trace = workload::generateSynthetic(wp);

    std::vector<core::SystemConfig> configs;
    for (std::uint32_t actuators : {1u, 2u, 4u}) {
        disk::DriveSpec drive = disk::barracudaEs750();
        if (actuators > 1)
            drive = disk::makeIntraDiskParallel(drive, actuators);
        configs.push_back(core::makeRaid0System(
            "SA(" + std::to_string(actuators) + ")", drive, 1));
    }

    // Reference: the pre-engine serial loop.
    std::vector<core::RunResult> reference;
    for (const auto &config : configs)
        reference.push_back(core::runTrace(trace, config));

    expectBitIdentical(reference,
                       exec::runSystems(trace, configs, 1));
    expectBitIdentical(reference,
                       exec::runSystems(trace, configs, 8));
}

} // namespace
