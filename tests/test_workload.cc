/**
 * @file
 * Workload tests: synthetic generator statistics, the four commercial
 * models (Table 2 parameters, stream properties, determinism), and
 * trace serialization round trips.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "workload/commercial.hh"
#include "workload/request.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace {

using namespace idp;
using namespace idp::workload;

TEST(Synthetic, CountAndOrdering)
{
    SyntheticParams p;
    p.requests = 5000;
    const Trace t = generateSynthetic(p);
    ASSERT_EQ(t.size(), 5000u);
    validateTrace(t); // fatal if out of order
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i].id, i);
}

TEST(Synthetic, ReadFractionMatches)
{
    SyntheticParams p;
    p.requests = 50000;
    const Trace t = generateSynthetic(p);
    const TraceSummary s = summarize(t);
    EXPECT_NEAR(s.readFraction, 0.60, 0.01);
}

TEST(Synthetic, InterArrivalMeanMatches)
{
    SyntheticParams p;
    p.requests = 50000;
    p.meanInterArrivalMs = 4.0;
    const Trace t = generateSynthetic(p);
    const TraceSummary s = summarize(t);
    EXPECT_NEAR(s.meanInterArrivalMs, 4.0, 0.1);
}

TEST(Synthetic, SequentialFractionVisible)
{
    SyntheticParams p;
    p.requests = 50000;
    const Trace t = generateSynthetic(p);
    std::uint64_t seq = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        if (t[i].lba == t[i - 1].lba + t[i - 1].sectors)
            ++seq;
    const double frac =
        static_cast<double>(seq) / static_cast<double>(t.size() - 1);
    EXPECT_NEAR(frac, 0.20, 0.02);
}

TEST(Synthetic, StaysInAddressSpace)
{
    SyntheticParams p;
    p.requests = 20000;
    p.addressSpaceSectors = 100000;
    const Trace t = generateSynthetic(p);
    for (const auto &r : t)
        EXPECT_LE(r.lba + r.sectors, p.addressSpaceSectors);
}

TEST(Synthetic, PerRequestBoundarySemantics)
{
    // The LBA limit is per-request (space - this request's sectors),
    // so large requests still fit while small ones can address the
    // tail of the space instead of leaving a maxSectors-sized dead
    // zone. Sizes spanning nearly the whole space make any off-by-one
    // in either branch overrun immediately.
    SyntheticParams p;
    p.requests = 20000;
    p.minSectors = 1;
    p.maxSectors = 64;
    p.addressSpaceSectors = 65;
    const Trace t = generateSynthetic(p);
    bool tail_reached = false;
    for (const auto &r : t) {
        ASSERT_LE(r.lba + r.sectors, p.addressSpaceSectors);
        tail_reached = tail_reached ||
            r.lba + r.sectors == p.addressSpaceSectors;
    }
    // Sequential runs may land exactly on the end of the space.
    EXPECT_TRUE(tail_reached);
}

TEST(Synthetic, LastSectorReachableViaSequentialRuns)
{
    // Degenerate space of two sectors, single-sector requests: the
    // random branch draws lba 0, and a sequential follow-on reaches
    // the last sector (lba 1).
    SyntheticParams p;
    p.requests = 2000;
    p.minSectors = 1;
    p.maxSectors = 1;
    p.addressSpaceSectors = 2;
    p.sequentialFraction = 0.5;
    const Trace t = generateSynthetic(p);
    bool last_sector_seen = false;
    for (const auto &r : t) {
        EXPECT_LE(r.lba + r.sectors, 2u);
        last_sector_seen = last_sector_seen || r.lba == 1;
    }
    EXPECT_TRUE(last_sector_seen);
}

TEST(Synthetic, DeterministicBySeed)
{
    SyntheticParams p;
    p.requests = 1000;
    const Trace a = generateSynthetic(p);
    const Trace b = generateSynthetic(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].lba, b[i].lba);
        EXPECT_EQ(a[i].isRead, b[i].isRead);
    }
    p.seed = 999;
    const Trace c = generateSynthetic(p);
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].lba != c[i].lba;
    EXPECT_TRUE(differs);
}

TEST(Table2, ModelsMatchPaper)
{
    const auto &fin = workloadModel(Commercial::Financial);
    EXPECT_EQ(fin.disks, 24u);
    EXPECT_NEAR(fin.capacityGB, 19.07, 1e-9);
    EXPECT_EQ(fin.rpm, 10000u);
    EXPECT_EQ(fin.platters, 4u);
    EXPECT_EQ(fin.paperRequests, 5334945u);

    const auto &web = workloadModel(Commercial::Websearch);
    EXPECT_EQ(web.disks, 6u);
    EXPECT_EQ(web.paperRequests, 4579809u);

    const auto &tpcc = workloadModel(Commercial::TpcC);
    EXPECT_EQ(tpcc.disks, 4u);
    EXPECT_NEAR(tpcc.capacityGB, 37.17, 1e-9);
    EXPECT_EQ(tpcc.paperRequests, 6155547u);

    const auto &tpch = workloadModel(Commercial::TpcH);
    EXPECT_EQ(tpch.disks, 15u);
    EXPECT_NEAR(tpch.capacityGB, 35.96, 1e-9);
    EXPECT_EQ(tpch.rpm, 7200u);
    EXPECT_EQ(tpch.platters, 6u);
    EXPECT_EQ(tpch.paperRequests, 4228725u);
    // The paper quotes TPC-H's 8.76 ms mean inter-arrival directly.
    EXPECT_NEAR(tpch.meanInterArrivalMs, 8.76, 1e-9);
}

TEST(Commercial, NamesResolve)
{
    EXPECT_EQ(commercialName(Commercial::Financial), "Financial");
    EXPECT_EQ(commercialName(Commercial::Websearch), "Websearch");
    EXPECT_EQ(commercialName(Commercial::TpcC), "TPC-C");
    EXPECT_EQ(commercialName(Commercial::TpcH), "TPC-H");
    EXPECT_EQ(allCommercial().size(), 4u);
}

class CommercialStream
    : public ::testing::TestWithParam<Commercial>
{
};

TEST_P(CommercialStream, BasicStreamProperties)
{
    const Commercial kind = GetParam();
    const WorkloadModel &model = workloadModel(kind);
    CommercialParams p;
    p.kind = kind;
    p.requests = 40000;
    const Trace t = generateCommercial(p);
    ASSERT_EQ(t.size(), 40000u);
    validateTrace(t);
    const TraceSummary s = summarize(t);

    // Read mix within 2 percentage points of the model.
    EXPECT_NEAR(s.readFraction, model.readFraction, 0.02);
    // Mean inter-arrival within 10% of the calibrated value.
    EXPECT_NEAR(s.meanInterArrivalMs, model.meanInterArrivalMs,
                model.meanInterArrivalMs * 0.10);
    // Devices within the traced system's disk count.
    EXPECT_LE(s.devices, model.disks);
    EXPECT_GE(s.devices, model.disks > 2 ? model.disks - 1 : 1);

    // Every access fits its device.
    const std::uint64_t dev_sectors = static_cast<std::uint64_t>(
        model.capacityGB * 1e9 / geom::kSectorBytes);
    for (const auto &r : t) {
        EXPECT_LT(r.device, model.disks);
        EXPECT_LE(r.lba + r.sectors, dev_sectors);
        EXPECT_GE(r.sectors, model.minSectors);
        EXPECT_LE(r.sectors, model.maxSectors);
    }
}

TEST_P(CommercialStream, DeterministicBySeed)
{
    CommercialParams p;
    p.kind = GetParam();
    p.requests = 2000;
    const Trace a = generateCommercial(p);
    const Trace b = generateCommercial(p);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].arrival, b[i].arrival);
        ASSERT_EQ(a[i].lba, b[i].lba);
        ASSERT_EQ(a[i].device, b[i].device);
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CommercialStream,
                         ::testing::Values(Commercial::Financial,
                                           Commercial::Websearch,
                                           Commercial::TpcC,
                                           Commercial::TpcH));

/** FNV-1a over every field of every request, in trace order. */
std::uint64_t
traceDigest(const Trace &trace)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const IoRequest &r : trace) {
        mix(r.id);
        mix(r.arrival);
        mix(r.device);
        mix(r.lba);
        mix(r.sectors);
        mix(r.isRead);
        mix(r.background);
    }
    return h;
}

TEST(Generators, StreamsMatchPinnedDigests)
{
    // Every generated field, bit for bit, at the default seeds: a
    // sampler change that moves a single draw (one Zipf rank, one
    // rounding of an arrival) fails here, not only in a statistic.
    const std::pair<Commercial, std::uint64_t> pinned[] = {
        {Commercial::Financial, 0x74003931b03aa7aaULL},
        {Commercial::Websearch, 0x494c3828c9ba1355ULL},
        {Commercial::TpcC, 0xf5f41120ba9dcb31ULL},
        {Commercial::TpcH, 0xbec5fac8489b43fdULL},
    };
    for (const auto &[kind, digest] : pinned) {
        CommercialParams p;
        p.kind = kind;
        p.requests = 20000;
        EXPECT_EQ(traceDigest(generateCommercial(p)), digest)
            << commercialName(kind);
    }
    SyntheticParams s;
    s.requests = 20000;
    EXPECT_EQ(traceDigest(generateSynthetic(s)), 0x7e0413c48604c3a9ULL);
}

TEST(Commercial, FinancialIsWriteHeavyAndSkewed)
{
    CommercialParams p;
    p.kind = Commercial::Financial;
    p.requests = 40000;
    const Trace t = generateCommercial(p);
    const TraceSummary s = summarize(t);
    EXPECT_LT(s.readFraction, 0.3);

    // Device popularity skew: the hottest device gets far more than
    // its uniform share (1/24).
    std::vector<std::uint64_t> per_dev(24, 0);
    for (const auto &r : t)
        ++per_dev[r.device];
    const std::uint64_t hottest =
        *std::max_element(per_dev.begin(), per_dev.end());
    EXPECT_GT(hottest, t.size() / 24 * 3);
}

TEST(Commercial, WebsearchAlmostAllReads)
{
    CommercialParams p;
    p.kind = Commercial::Websearch;
    p.requests = 20000;
    const TraceSummary s = summarize(generateCommercial(p));
    EXPECT_GT(s.readFraction, 0.97);
}

TEST(Commercial, TpchLargeAndSequential)
{
    CommercialParams p;
    p.kind = Commercial::TpcH;
    p.requests = 20000;
    const Trace t = generateCommercial(p);
    const TraceSummary s = summarize(t);
    EXPECT_GT(s.meanSizeKB, 32.0); // large transfers

    std::uint64_t seq = 0;
    std::vector<geom::Lba> last_end(15, 0);
    for (const auto &r : t) {
        if (r.lba == last_end[r.device])
            ++seq;
        last_end[r.device] = r.lba + r.sectors;
    }
    EXPECT_GT(static_cast<double>(seq) / t.size(), 0.5);
}

TEST(Commercial, IntensityScaleCompressesTime)
{
    CommercialParams p;
    p.kind = Commercial::TpcC;
    p.requests = 10000;
    const TraceSummary base = summarize(generateCommercial(p));
    p.intensityScale = 2.0;
    const TraceSummary fast = summarize(generateCommercial(p));
    EXPECT_NEAR(fast.meanInterArrivalMs, base.meanInterArrivalMs / 2.0,
                base.meanInterArrivalMs * 0.1);
}

TEST(TraceIo, RoundTrip)
{
    SyntheticParams p;
    p.requests = 500;
    const Trace original = generateSynthetic(p);
    std::stringstream buf;
    writeTrace(buf, original);
    const Trace loaded = readTrace(buf);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        // v2 round-trips are exact: full-precision ticks and ids.
        EXPECT_EQ(loaded[i].id, original[i].id);
        EXPECT_EQ(loaded[i].arrival, original[i].arrival);
        EXPECT_EQ(loaded[i].device, original[i].device);
        EXPECT_EQ(loaded[i].lba, original[i].lba);
        EXPECT_EQ(loaded[i].sectors, original[i].sectors);
        EXPECT_EQ(loaded[i].isRead, original[i].isRead);
        EXPECT_EQ(loaded[i].background, original[i].background);
    }
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::stringstream buf;
    buf << "# idp-trace v1\n\n# a comment\n1000 0 42 8 R\n";
    const Trace t = readTrace(buf);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].lba, 42u);
    EXPECT_TRUE(t[0].isRead);
}

TEST(TraceIo, MalformedLineIsFatal)
{
    std::stringstream buf;
    buf << "1000 0 42 8 X\n"; // bad R/W flag
    EXPECT_DEATH(
        {
            // readTrace -> fatal -> exit(1); death test catches it.
            readTrace(buf);
        },
        "malformed");
}

TEST(Summary, ComputesAggregates)
{
    Trace t;
    IoRequest a;
    a.arrival = 0;
    a.device = 0;
    a.sectors = 8;
    a.isRead = true;
    IoRequest b;
    b.arrival = sim::msToTicks(10.0);
    b.device = 3;
    b.sectors = 24;
    b.isRead = false;
    t.push_back(a);
    t.push_back(b);
    const TraceSummary s = summarize(t);
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.devices, 4u);
    EXPECT_DOUBLE_EQ(s.readFraction, 0.5);
    EXPECT_NEAR(s.meanInterArrivalMs, 10.0, 1e-9);
    EXPECT_NEAR(s.meanSizeKB, (8 + 24) * 512.0 / 1024 / 2, 1e-9);
}

TEST(Summary, EmptyTraceSafe)
{
    const TraceSummary s = summarize(Trace{});
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.devices, 0u);
}

} // namespace
