/**
 * @file
 * Configuration-system tests: INI parsing (grammar, errors, typed
 * accessors), the parse -> serialize -> reparse round trip (shipped
 * configs and seeded random documents), and experiment assembly from
 * config text.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "config/ini.hh"
#include "config/sim_config.hh"
#include "sim/rng.hh"

namespace {

using namespace idp;
using config::IniFile;

TEST(Ini, BasicParse)
{
    const IniFile ini = IniFile::parseString(
        "# comment\n"
        "[alpha]\n"
        "key = value\n"
        "num= 42 ; trailing comment\n"
        "\n"
        "[beta]\n"
        "flag = true\n");
    EXPECT_TRUE(ini.has("alpha", "key"));
    EXPECT_EQ(ini.get("alpha", "key"), "value");
    EXPECT_EQ(ini.getInt("alpha", "num", 0), 42);
    EXPECT_TRUE(ini.getBool("beta", "flag", false));
    EXPECT_EQ(ini.sections(),
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(ini.keys("alpha"),
              (std::vector<std::string>{"key", "num"}));
}

TEST(Ini, Fallbacks)
{
    const IniFile ini = IniFile::parseString("[s]\nx = 1\n");
    EXPECT_EQ(ini.get("s", "missing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(ini.getDouble("s", "missing", 2.5), 2.5);
    EXPECT_EQ(ini.getInt("nosection", "x", 7), 7);
    EXPECT_FALSE(ini.getBool("s", "missing", false));
}

TEST(Ini, WhitespaceTrimmed)
{
    const IniFile ini =
        IniFile::parseString("[ s ]\n  spaced key  =  a value  \n");
    EXPECT_EQ(ini.get("s", "spaced key"), "a value");
}

TEST(Ini, BooleanSpellings)
{
    const IniFile ini = IniFile::parseString(
        "[b]\na=true\nb=Yes\nc=ON\nd=1\ne=false\nf=No\ng=off\nh=0\n");
    for (const char *k : {"a", "b", "c", "d"})
        EXPECT_TRUE(ini.getBool("b", k, false)) << k;
    for (const char *k : {"e", "f", "g", "h"})
        EXPECT_FALSE(ini.getBool("b", k, true)) << k;
}

TEST(Ini, ErrorsAreFatal)
{
    EXPECT_DEATH(IniFile::parseString("key = 1\n"),
                 "before any");
    EXPECT_DEATH(IniFile::parseString("[s]\nno equals here\n"),
                 "expected key");
    EXPECT_DEATH(IniFile::parseString("[s]\nx=1\nx=2\n"),
                 "duplicate key");
    EXPECT_DEATH(IniFile::parseString("[unclosed\n"),
                 "malformed section");
    EXPECT_DEATH(IniFile::parseString("[s]\n= nokey\n"), "empty key");
}

TEST(Ini, TypedAccessorErrors)
{
    const IniFile ini =
        IniFile::parseString("[s]\nx = notanumber\nb = maybe\n");
    EXPECT_DEATH(ini.getDouble("s", "x", 0.0), "not a number");
    EXPECT_DEATH(ini.getInt("s", "x", 0), "not an integer");
    EXPECT_DEATH(ini.getBool("s", "b", false), "not a boolean");
    EXPECT_DEATH(ini.require("s", "missing"), "missing required");
}

TEST(Ini, MissingFileFatal)
{
    EXPECT_DEATH(IniFile::parseFile("/no/such/config.ini"),
                 "cannot open");
}

TEST(SimConfig, DriveOverrides)
{
    const IniFile ini = IniFile::parseString(
        "[drive]\n"
        "rpm = 5200\n"
        "actuators = 3\n"
        "heads_per_arm = 2\n"
        "policy = sptf\n"
        "cache_mb = 16\n"
        "seek_scale = 0.5\n");
    const disk::DriveSpec spec =
        config::driveFromIni(ini, disk::barracudaEs750());
    EXPECT_EQ(spec.rpm, 5200u);
    EXPECT_EQ(spec.dash.armAssemblies, 3u);
    EXPECT_EQ(spec.dash.headsPerArm, 2u);
    EXPECT_EQ(spec.sched.policy, sched::Policy::Sptf);
    EXPECT_EQ(spec.cache.cacheBytes, 16u * 1024 * 1024);
    EXPECT_DOUBLE_EQ(spec.seekScale, 0.5);
    // Normalized: power params track the overrides.
    EXPECT_EQ(spec.power.rpm, 5200u);
    EXPECT_EQ(spec.power.actuators, 3u);
}

TEST(SimConfig, SyntheticWorkload)
{
    const IniFile ini = IniFile::parseString(
        "[workload]\n"
        "kind = synthetic\n"
        "requests = 500\n"
        "inter_arrival_ms = 2.0\n"
        "read_fraction = 0.9\n");
    const workload::Trace trace = config::traceFromIni(ini);
    ASSERT_EQ(trace.size(), 500u);
    const auto s = workload::summarize(trace);
    EXPECT_NEAR(s.readFraction, 0.9, 0.05);
    EXPECT_NEAR(s.meanInterArrivalMs, 2.0, 0.3);
}

TEST(SimConfig, CommercialWorkload)
{
    const IniFile ini = IniFile::parseString(
        "[workload]\nkind = tpcc\nrequests = 800\n");
    const workload::Trace trace = config::traceFromIni(ini);
    EXPECT_EQ(trace.size(), 800u);
}

TEST(SimConfig, UnknownWorkloadFatal)
{
    const IniFile ini =
        IniFile::parseString("[workload]\nkind = bogus\n");
    EXPECT_DEATH(config::traceFromIni(ini), "unknown commercial");
}

TEST(SimConfig, FullExperimentRaid0)
{
    const IniFile ini = IniFile::parseString(
        "[run]\nname = demo\n"
        "[drive]\nactuators = 2\ncapacity_gb = 20\n"
        "[system]\nlayout = raid0\ndisks = 4\nstripe_kb = 32\n"
        "[workload]\nkind = synthetic\nrequests = 300\n"
        "address_gb = 60\n");
    config::Experiment exp = config::experimentFromIni(ini);
    EXPECT_EQ(exp.name, "demo");
    EXPECT_EQ(exp.system.array.layout, array::Layout::Raid0);
    EXPECT_EQ(exp.system.array.disks, 4u);
    EXPECT_EQ(exp.system.array.stripeSectors, 64u);
    EXPECT_EQ(exp.system.array.drive.dash.armAssemblies, 2u);
    EXPECT_EQ(exp.trace.size(), 300u);
    // The assembled experiment actually runs.
    const core::RunResult r = core::runTrace(exp.trace, exp.system);
    EXPECT_EQ(r.completions, 300u);
}

TEST(SimConfig, HcsdLayoutFromCommercial)
{
    const IniFile ini = IniFile::parseString(
        "[system]\nlayout = hcsd\n"
        "[workload]\nkind = websearch\nrequests = 400\n");
    config::Experiment exp = config::experimentFromIni(ini);
    EXPECT_EQ(exp.system.array.layout, array::Layout::Concat);
    EXPECT_EQ(exp.system.array.deviceSectors.size(), 6u);
}

TEST(SimConfig, MdLayoutNeedsCommercial)
{
    const IniFile ini = IniFile::parseString(
        "[system]\nlayout = md\n"
        "[workload]\nkind = synthetic\nrequests = 10\n");
    EXPECT_DEATH(config::experimentFromIni(ini),
                 "need a commercial workload");
}

TEST(SimConfig, BusKeysApply)
{
    const IniFile ini = IniFile::parseString(
        "[system]\nlayout = single\nuse_bus = true\nbus_mbps = 150\n"
        "bus_channels = 2\n"
        "[workload]\nkind = synthetic\nrequests = 10\n"
        "address_gb = 1\n");
    config::Experiment exp = config::experimentFromIni(ini);
    EXPECT_TRUE(exp.system.array.useBus);
    EXPECT_DOUBLE_EQ(exp.system.array.bus.bandwidthMBps, 150.0);
    EXPECT_EQ(exp.system.array.bus.channels, 2u);
}

TEST(SimConfig, SeekCurveAndFaultKeys)
{
    const IniFile ini = IniFile::parseString(
        "[drive]\n"
        "seek_curve = 1:0.8,1000:2.5,100000:9.0\n"
        "media_retry_rate = 0.05\n"
        "max_retries = 5\n");
    const disk::DriveSpec spec =
        config::driveFromIni(ini, disk::barracudaEs750());
    ASSERT_EQ(spec.seek.curvePoints.size(), 3u);
    EXPECT_EQ(spec.seek.curvePoints[1].first, 1000u);
    EXPECT_DOUBLE_EQ(spec.seek.curvePoints[1].second, 2.5);
    EXPECT_DOUBLE_EQ(spec.mediaRetryRate, 0.05);
    EXPECT_EQ(spec.maxRetries, 5u);
}

TEST(SimConfig, MalformedSeekCurveFatal)
{
    const IniFile ini = IniFile::parseString(
        "[drive]\nseek_curve = 1-0.8\n");
    EXPECT_DEATH(config::driveFromIni(ini, disk::barracudaEs750()),
                 "dist:ms");
}

TEST(SimConfig, BadDriveValuesExitNamingTheKey)
{
    // Every value goes through the environment table's kind and
    // domain check: a bad one exits 1 naming [section] key and the
    // accepted form, instead of throwing, wrapping or panicking later.
    auto drive = [](const std::string &line) {
        config::driveFromIni(IniFile::parseString("[drive]\n" + line),
                             disk::barracudaEs750());
    };
    EXPECT_EXIT(drive("seek_curve = 10:abc"), testing::ExitedWithCode(1),
                "\\[drive\\] seek_curve: expected dist:ms pairs.*"
                "ms a finite number >= 0.*10:abc");
    EXPECT_EXIT(drive("seek_curve = x:1"), testing::ExitedWithCode(1),
                "\\[drive\\] seek_curve: expected dist:ms pairs, dist "
                "a whole number from 1 to 4294967295.*x:1");
    EXPECT_EXIT(drive("rpm = -5"), testing::ExitedWithCode(1),
                "\\[drive\\] rpm: expected a whole number from 1 to "
                "4294967295, got \"-5\"");
    EXPECT_EXIT(drive("rpm = 0"), testing::ExitedWithCode(1),
                "\\[drive\\] rpm: expected a whole number from 1 to "
                "4294967295, got \"0\"");
}

TEST(SimConfig, BadSystemAndWorkloadValuesExitNamingTheKey)
{
    auto experiment = [](const std::string &text) {
        config::experimentFromIni(IniFile::parseString(text));
    };
    EXPECT_EXIT(experiment("[workload]\nread_fraction = 1.5\n"),
                testing::ExitedWithCode(1),
                "\\[workload\\] read_fraction: expected a finite "
                "number in \\[0, 1\\]");
    EXPECT_EXIT(experiment("[workload]\nrequests = 1e3\n"),
                testing::ExitedWithCode(1),
                "\\[workload\\] requests: expected a whole number");
    EXPECT_EXIT(experiment("[system]\nstripe_kb = 0\n"),
                testing::ExitedWithCode(1),
                "\\[system\\] stripe_kb: expected a finite number > 0");
}

TEST(ShippedConfigs, AllParseAndAssemble)
{
    // Guard against drift between the code and the configs/ files
    // the README points at.
    for (const char *name :
         {"conventional.ini", "intradisk_sa4.ini",
          "websearch_consolidation.ini"}) {
        const std::string path =
            std::string(IDP_SOURCE_DIR) + "/configs/" + name;
        const IniFile ini = IniFile::parseFile(path);
        config::Experiment exp = config::experimentFromIni(ini);
        EXPECT_FALSE(exp.trace.empty()) << name;
        EXPECT_GE(exp.system.array.disks, 1u) << name;
    }
}

TEST(ShippedConfigs, ConventionalVsSa4DifferOnlyInArms)
{
    const std::string dir = std::string(IDP_SOURCE_DIR) + "/configs/";
    const config::Experiment conv = config::experimentFromIni(
        IniFile::parseFile(dir + "conventional.ini"));
    const config::Experiment sa4 = config::experimentFromIni(
        IniFile::parseFile(dir + "intradisk_sa4.ini"));
    EXPECT_EQ(conv.system.array.drive.dash.armAssemblies, 1u);
    EXPECT_EQ(sa4.system.array.drive.dash.armAssemblies, 4u);
    EXPECT_EQ(conv.system.array.drive.rpm,
              sa4.system.array.drive.rpm);
    ASSERT_EQ(conv.trace.size(), sa4.trace.size());
    EXPECT_EQ(conv.trace[100].lba, sa4.trace[100].lba);
}

TEST(SimConfig, UnknownLayoutFatal)
{
    const IniFile ini = IniFile::parseString(
        "[system]\nlayout = raid9\n"
        "[workload]\nkind = synthetic\nrequests = 10\n");
    EXPECT_DEATH(config::experimentFromIni(ini), "unknown");
}

// ---------------------------------------------------------------
// INI round-trip property: parse -> serialize -> reparse == identity
// ---------------------------------------------------------------

/** Semantic equality: same sections/keys in the same order, same
 *  values — checked through the public API only. */
void
expectIniEqual(const config::IniFile &a, const config::IniFile &b)
{
    ASSERT_EQ(a.sections(), b.sections());
    for (const auto &section : a.sections()) {
        ASSERT_EQ(a.keys(section), b.keys(section))
            << "section [" << section << "]";
        for (const auto &key : a.keys(section))
            EXPECT_EQ(a.get(section, key), b.get(section, key))
                << "[" << section << "] " << key;
    }
}

void
expectRoundTrips(const config::IniFile &ini)
{
    const std::string serialized = ini.str();
    const config::IniFile reparsed =
        config::IniFile::parseString(serialized);
    expectIniEqual(ini, reparsed);
    // Serialization is a fix point: reparse then reserialize is
    // byte-identical, so golden configs stay diffable.
    EXPECT_EQ(serialized, reparsed.str());
}

TEST(IniRoundTrip, ShippedConfigsRoundTrip)
{
    const std::filesystem::path dir =
        std::filesystem::path(IDP_SOURCE_DIR) / "configs";
    std::size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".ini")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        expectRoundTrips(
            config::IniFile::parseFile(entry.path().string()));
        ++seen;
    }
    EXPECT_GE(seen, 3u) << "expected the shipped configs/*.ini";
}

TEST(IniRoundTrip, HandlesCommentsDuplicateSectionsAndSpacing)
{
    const config::IniFile ini = config::IniFile::parseString(
        "# leading comment\n"
        "[drive]\n"
        "  rpm   =  7200   ; trailing comment\n"
        "name = Barracuda ES 750\n"
        "\n"
        "[workload]\n"
        "kind = websearch\n"
        "[drive]\n"          // duplicate section: merged, order kept
        "platters = 4\n");
    EXPECT_EQ(ini.get("drive", "rpm"), "7200");
    EXPECT_EQ(ini.get("drive", "platters"), "4");
    EXPECT_EQ(ini.sections(),
              (std::vector<std::string>{"drive", "workload"}));
    expectRoundTrips(ini);
}

TEST(IniRoundTrip, ValuesMayContainEqualsAndBrackets)
{
    const config::IniFile ini = config::IniFile::parseString(
        "[s]\n"
        "expr = a=b=c\n"
        "range = [0, 10)\n");
    EXPECT_EQ(ini.get("s", "expr"), "a=b=c");
    EXPECT_EQ(ini.get("s", "range"), "[0, 10)");
    expectRoundTrips(ini);
}

TEST(IniRoundTrip, EmptySectionNameIsRejected)
{
    // "[ ]" used to parse as a section literally named "" — which
    // serialization cannot represent ("[]"), breaking the round
    // trip. The parser now rejects it outright.
    EXPECT_EXIT(config::IniFile::parseString("[ ]\nk = v\n"),
                ::testing::ExitedWithCode(1), "empty section name");
}

TEST(IniRoundTrip, SetRejectsUnrepresentableTokens)
{
    config::IniFile ini;
    ini.set("s", "k", "v");
    EXPECT_EXIT(ini.set("s", "k", "has # marker"),
                ::testing::ExitedWithCode(1), "cannot represent");
    EXPECT_EXIT(ini.set("s", "bad=key", "v"),
                ::testing::ExitedWithCode(1), "cannot represent");
    EXPECT_EXIT(ini.set("s", "k", " padded "),
                ::testing::ExitedWithCode(1), "whitespace");
    EXPECT_EXIT(ini.set("bad]name", "k", "v"),
                ::testing::ExitedWithCode(1), "cannot represent");
}

class IniFuzzRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(IniFuzzRoundTrip, RandomDocumentsRoundTrip)
{
    sim::Rng rng =
        sim::Rng::forStream(0x1A1F, static_cast<std::uint64_t>(
                                        GetParam()));

    // Token alphabets the grammar can represent (no comment markers,
    // no newlines; interior spaces allowed in values).
    const std::string ident =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    const std::string valueChars = ident + "=[()/ @+%";
    auto token = [&](const std::string &alphabet,
                     std::uint64_t min_len, std::uint64_t max_len) {
        const std::uint64_t len = min_len +
            rng.uniformInt(max_len - min_len + 1);
        std::string s;
        for (std::uint64_t i = 0; i < len; ++i)
            s += alphabet[rng.uniformInt(alphabet.size())];
        return s;
    };

    config::IniFile ini;
    const std::uint64_t sections = 1 + rng.uniformInt(5ULL);
    for (std::uint64_t s = 0; s < sections; ++s) {
        const std::string section = token(ident, 1, 12);
        const std::uint64_t keys = 1 + rng.uniformInt(8ULL);
        for (std::uint64_t k = 0; k < keys; ++k) {
            std::string value = token(valueChars, 0, 20);
            // Interior spaces only: trim the ends.
            while (!value.empty() && value.front() == ' ')
                value.erase(value.begin());
            while (!value.empty() && value.back() == ' ')
                value.pop_back();
            ini.set(section, token(ident, 1, 12), value);
        }
    }
    expectRoundTrips(ini);

    // Also survive a noisy re-rendering: random comments, blank
    // lines and whitespace around tokens must parse back to the
    // same document.
    std::ostringstream noisy;
    for (const auto &section : ini.sections()) {
        if (rng.chance(0.5))
            noisy << "# " << token(valueChars, 0, 10) << "\n";
        noisy << "  [" << section << "]  \n";
        for (const auto &key : ini.keys(section)) {
            noisy << "  " << key << "  =  "
                  << ini.get(section, key);
            if (rng.chance(0.3))
                noisy << "   ; " << token(ident, 0, 8);
            noisy << "\n";
            if (rng.chance(0.2))
                noisy << "\n";
        }
    }
    expectIniEqual(ini,
                   config::IniFile::parseString(noisy.str()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IniFuzzRoundTrip,
                         ::testing::Range(0, 16));

} // namespace
