/**
 * @file
 * File-level trace IO tests (the stream-level round trip is in
 * test_workload.cc): real files, large traces, error paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "workload/commercial.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace {

using namespace idp;
using namespace idp::workload;

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceFiles, WriteReadRoundTrip)
{
    CommercialParams p;
    p.kind = Commercial::TpcC;
    p.requests = 3000;
    const Trace original = generateCommercial(p);
    const std::string path = tmpPath("roundtrip.trace");
    writeTraceFile(path, original);
    const Trace loaded = readTraceFile(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); i += 97) {
        EXPECT_EQ(loaded[i].device, original[i].device);
        EXPECT_EQ(loaded[i].lba, original[i].lba);
        EXPECT_EQ(loaded[i].sectors, original[i].sectors);
        EXPECT_EQ(loaded[i].isRead, original[i].isRead);
    }
    std::remove(path.c_str());
}

TEST(TraceFiles, HeaderPresent)
{
    const std::string path = tmpPath("header.trace");
    writeTraceFile(path, Trace{});
    std::ifstream is(path);
    std::string first;
    std::getline(is, first);
    EXPECT_EQ(first, "# idp-trace v2");
    std::remove(path.c_str());
}

TEST(TraceFiles, MissingFileIsFatal)
{
    EXPECT_DEATH(readTraceFile("/nonexistent/path/x.trace"),
                 "cannot open");
}

TEST(TraceFiles, UnwritablePathIsFatal)
{
    EXPECT_DEATH(writeTraceFile("/nonexistent/dir/x.trace", Trace{}),
                 "cannot open");
}

TEST(TraceFiles, V2PreservesIds)
{
    // The v1 writer dropped ids (readers reassigned 0, 1, 2, ...); a
    // closed-loop trace whose ids encode the worker in the high bits
    // came back renumbered. v2 round-trips them untouched.
    Trace t;
    IoRequest a;
    a.id = (7ULL << 32) | 999;
    a.arrival = 0;
    a.lba = 5;
    a.sectors = 1;
    t.push_back(a);
    const std::string path = tmpPath("ids.trace");
    writeTraceFile(path, t);
    const Trace loaded = readTraceFile(path);
    EXPECT_EQ(loaded[0].id, (7ULL << 32) | 999);
    std::remove(path.c_str());
}

TEST(TraceFiles, V1IdsStillReassignedOnLoad)
{
    // Historical v1 semantics are preserved for existing files.
    const std::string path = tmpPath("v1ids.trace");
    {
        std::ofstream os(path);
        os << "# idp-trace v1\n"
           << "10 0 5 1 R\n"
           << "20 1 9 2 W\n";
    }
    const Trace loaded = readTraceFile(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].id, 0u);
    EXPECT_EQ(loaded[1].id, 1u);
    EXPECT_EQ(loaded[0].arrival, 10 * sim::kTicksPerUs);
    EXPECT_EQ(loaded[1].device, 1u);
    EXPECT_FALSE(loaded[1].isRead);
    std::remove(path.c_str());
}

TEST(TraceFiles, ExactRoundTripIncludingSubMicrosecondArrivals)
{
    // Regression: the v1 writer emitted arrival / kTicksPerUs, so any
    // sub-microsecond component of an arrival tick was silently
    // truncated and a write/read round trip changed the workload.
    Trace t;
    for (std::uint64_t i = 0; i < 5; ++i) {
        IoRequest r;
        r.id = 100 + i;
        // Deliberately not multiples of kTicksPerUs.
        r.arrival = i * sim::kTicksPerUs + 137 * i + 1;
        r.device = static_cast<std::uint16_t>(i % 3);
        r.lba = 1000 + 7 * i;
        r.sectors = static_cast<std::uint32_t>(1 + i);
        r.isRead = i % 2 == 0;
        r.background = i == 4;
        t.push_back(r);
    }
    const std::string path = tmpPath("exact.trace");
    writeTraceFile(path, t);
    const Trace loaded = readTraceFile(path);
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].id, t[i].id) << i;
        EXPECT_EQ(loaded[i].arrival, t[i].arrival) << i;
        EXPECT_EQ(loaded[i].device, t[i].device) << i;
        EXPECT_EQ(loaded[i].lba, t[i].lba) << i;
        EXPECT_EQ(loaded[i].sectors, t[i].sectors) << i;
        EXPECT_EQ(loaded[i].isRead, t[i].isRead) << i;
        EXPECT_EQ(loaded[i].background, t[i].background) << i;
    }
    std::remove(path.c_str());
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeText(const std::string &name, const std::string &text)
{
    const std::string path = tmpPath(name);
    std::ofstream os(path);
    os << text;
    return path;
}

TEST(TraceFiles, WidestDeviceRoundTripsInBothFormats)
{
    // Device ids are 16-bit: 65535 is the largest a file may name.
    Trace t;
    IoRequest r;
    r.id = 3;
    r.arrival = 2 * sim::kTicksPerUs;
    r.device = 65535;
    r.lba = 77;
    r.sectors = 8;
    t.push_back(r);
    const std::string v2 = tmpPath("dev65535_v2.trace");
    writeTraceFile(v2, t);
    const Trace a = readTraceFile(v2);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].device, 65535u);
    EXPECT_EQ(a[0].id, 3u);
    EXPECT_EQ(a[0].lba, 77u);

    const std::string v1 =
        writeText("dev65535_v1.trace", "# idp-trace v1\n2 65535 77 8 W\n");
    const Trace b = readTraceFile(v1);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0].device, 65535u);
    EXPECT_EQ(b[0].arrival, 2 * sim::kTicksPerUs);
    EXPECT_FALSE(b[0].isRead);
    std::remove(v2.c_str());
    std::remove(v1.c_str());
}

/** A three-line file whose third line is @p bad: the loader must exit
 *  naming line 3, with @p why in the message. */
void
expectBadLine(const std::string &header, const std::string &bad,
              const std::string &why)
{
    const std::string good =
        header == "# idp-trace v2" ? "0 0 0 0 8 R" : "0 0 0 8 R";
    // Named after the test: ctest runs tests as parallel processes.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string path = writeText(
        name + ".trace", header + "\n" + good + "\n" + bad + "\n");
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "malformed trace line 3: " + why)
        << bad;
    std::remove(path.c_str());
}

TEST(TraceFiles, DeviceBeyond16BitsNamesTheLine)
{
    expectBadLine("# idp-trace v2", "1 5 65536 0 8 R",
                  "device 65536 is out of range");
    expectBadLine("# idp-trace v1", "5 65536 0 8 R",
                  "device 65536 is out of range");
}

TEST(TraceFiles, NegativeNumberInAnyColumnNamesTheLine)
{
    // libstdc++ streams accept "-1" for unsigned fields and wrap it to
    // the type's maximum; the loader takes digits only.
    auto each_column = [](const std::string &header,
                          const std::vector<std::string> &names,
                          const std::vector<std::string> &fields) {
        for (std::size_t c = 0; c < fields.size(); ++c) {
            std::string line;
            for (std::size_t i = 0; i < fields.size(); ++i)
                line += (i == c ? "-1" : fields[i]) + " ";
            expectBadLine(header, line + "R", names[c] + " \"-1\" is not");
        }
    };
    each_column("# idp-trace v2",
                {"id", "arrival", "device", "lba", "sectors"},
                {"1", "5", "0", "0", "8"});
    each_column("# idp-trace v1", {"arrival", "device", "lba", "sectors"},
                {"5", "0", "0", "8"});
}

TEST(TraceFiles, NonDecimalFieldsNameTheLine)
{
    // {field, the field as a death-test regex}
    const std::pair<const char *, const char *> devices[] = {
        {"+1", "\\+1"}, {"0x1", "0x1"}, {"1e3", "1e3"}, {"2a", "2a"}};
    for (const auto &[dev, pattern] : devices)
        expectBadLine("# idp-trace v2",
                      std::string("1 5 ") + dev + " 0 8 R",
                      "device \"" + std::string(pattern) + "\" is not");
    expectBadLine("# idp-trace v2", "1 5 0 0 8", "expected 6 fields");
    expectBadLine("# idp-trace v2", "1 5 0 0 8 R extra",
                  "expected 6 fields");
}

TEST(TraceFiles, ZeroSectorsAndBackwardArrivalsNameTheLine)
{
    expectBadLine("# idp-trace v2", "1 5 0 0 0 R", "zero-sector request");
    expectBadLine("# idp-trace v1", "5 0 0 0 W", "zero-sector request");
    // Line 2 arrives at tick 900, line 3 one tick earlier.
    const std::string path = writeText(
        "backwards.trace",
        "# idp-trace v2\n0 900 0 0 8 R\n1 899 0 0 8 R\n");
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "malformed trace line 3: arrival is earlier");
    std::remove(path.c_str());
}

TEST(TraceFiles, GeneratorsReserveExactly)
{
    // Traces are the largest resident structure of a sweep; the
    // generators size them exactly rather than by doubling.
    SyntheticParams sp;
    sp.requests = 1000;
    const Trace synth = generateSynthetic(sp);
    EXPECT_EQ(synth.capacity(), synth.size());
    for (Commercial kind : allCommercial()) {
        CommercialParams cp;
        cp.kind = kind;
        cp.requests = 1000;
        const Trace t = generateCommercial(cp);
        EXPECT_EQ(t.capacity(), t.size()) << commercialName(kind);
    }
}

TEST(TraceFiles, LargeTraceSurvives)
{
    CommercialParams p;
    p.kind = Commercial::Websearch;
    p.requests = 50000;
    const Trace original = generateCommercial(p);
    const std::string path = tmpPath("large.trace");
    writeTraceFile(path, original);
    const Trace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.back().lba, original.back().lba);
    std::remove(path.c_str());
}

} // namespace
