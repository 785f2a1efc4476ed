/**
 * @file
 * The configuration edge: the knob table, its one resolver, the one
 * bad-value policy, and the rule that no knob changes what a run
 * models. Every case below resolves a given list of NAME=value
 * entries; nothing here touches the process environment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "config/env.hh"
#include "core/experiment.hh"
#include "workload/synthetic.hh"

namespace {

using namespace idp;

std::vector<std::string>
tableNames()
{
    std::vector<std::string> names;
    for (const config::EnvVar &var : config::envTable())
        names.push_back(var.name);
    std::sort(names.begin(), names.end());
    return names;
}

TEST(EnvTable, ReadmeListsEveryKnob)
{
    std::ifstream readme(std::string(IDP_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(readme) << "cannot open README.md";
    std::vector<std::string> listed;
    bool in_section = false;
    std::string line;
    while (std::getline(readme, line)) {
        if (line.rfind("## ", 0) == 0)
            in_section = line == "## Environment variables";
        if (!in_section || line.rfind("| `IDP_", 0) != 0)
            continue;
        const std::size_t end = line.find_first_of("=`", 3);
        listed.push_back(line.substr(3, end - 3));
    }
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, tableNames());
}

TEST(EnvTable, OnlyTheResolverReadsTheEnvironment)
{
    // The pattern is split so this file does not match itself.
    const std::regex access("\\b(secure_)?get" "env\\b|\\b(un)?set" "env\\b"
                            "|\\bput" "env\\b|\\bclear" "env\\b"
                            "|\\b_*env" "iron\\b");
    const std::filesystem::path root(IDP_SOURCE_DIR);
    const std::filesystem::path resolver = root / "src/config/env.cc";
    std::vector<std::string> offenders;
    std::size_t scanned = 0;
    for (const char *dir : {"src", "bench", "examples", "tests"}) {
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(root / dir)) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() ||
                (ext != ".cc" && ext != ".hh" && ext != ".h"))
                continue;
            ++scanned;
            if (entry.path() == resolver)
                continue;
            std::ifstream is(entry.path());
            std::string line;
            for (int n = 1; std::getline(is, line); ++n)
                if (std::regex_search(line, access))
                    offenders.push_back(
                        std::filesystem::relative(entry.path(), root)
                            .string() +
                        ":" + std::to_string(n) + ": " + line);
        }
    }
    EXPECT_GT(scanned, 100u);
    for (const std::string &o : offenders)
        ADD_FAILURE() << "environment access outside the resolver: " << o;
}

/** One resolver case: an entry and either the message it exits with
 *  or a check on what it resolves to. */
struct Case
{
    const char *entry;
    const char *exits; ///< regex of the fatal message, or nullptr
    std::function<bool(const config::Env &)> check;
};

TEST(EnvResolveDeathTest, EachValueParsesOrExits)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    using config::Env;
    const std::vector<Case> cases = {
        // Switches take the INI getBool spellings; "off" is off.
        {"IDP_TRACE=off", nullptr,
         [](const Env &e) { return !e.tracing.enabled; }},
        // Malformed numbers exit instead of defaulting silently.
        {"IDP_SCALE=abc", "IDP_SCALE: expected a finite number > 0", {}},
        {"IDP_REQUESTS=abc",
         "IDP_REQUESTS: expected a whole number from 1", {}},
        // Empty means the default; "true" is a switch spelling.
        {"IDP_PDES=", nullptr,
         [](const Env &e) { return e.pdesWorkerCount() == 0u; }},
        {"IDP_BENCH_SMOKE=true", nullptr,
         [](const Env &e) { return e.benchSmoke; }},
        // Names and switches exit like every other knob (no core
        // dump).
        {"IDP_LOG=bogus", "IDP_LOG: expected one of error\\|warn\\|info",
         {}},
        {"IDP_VERIFY=2", "IDP_VERIFY: expected 1\\|0\\|true", {}},
        // Not a knob: an IDP_* name outside the table (a typo, a
        // retired knob) exits rather than running the defaults.
        {"IDP_PDES_HORIZON=bogus", "IDP_PDES_HORIZON: not a knob", {}},
        {"IDP_GOVERNOR=1", "IDP_GOVERNOR: not a knob", {}},
        // Names without the prefix are not ours.
        {"HOME=/nonexistent", nullptr,
         [](const Env &e) { return e.benchOut == "."; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.entry);
        if (c.exits != nullptr)
            EXPECT_EXIT(config::resolveEnv({c.entry}),
                        testing::ExitedWithCode(1), c.exits);
        else
            EXPECT_TRUE(c.check(config::resolveEnv({c.entry})));
    }
}

TEST(EnvResolve, UnsetOrEmptyMeansDefault)
{
    const config::Env defaults = config::resolveEnv({});
    std::vector<std::string> empty;
    for (const config::EnvVar &var : config::envTable())
        empty.push_back(std::string(var.name) + "=");
    const config::Env resolved = config::resolveEnv(empty);
    EXPECT_EQ(resolved.threads, defaults.threads);
    EXPECT_EQ(resolved.benchOut, ".");
    EXPECT_EQ(resolved.checkInvariants, verify::kCompiledIn);
    EXPECT_FALSE(resolved.tracing.enabled);
    EXPECT_EQ(resolved.pdesWorkerCount(), 0u);
    EXPECT_EQ(resolved.logLevel, sim::LogLevel::Warn);
}

TEST(EnvTable, NoKnobChangesWhatARunModels)
{
    // A legal non-default value for every row: a new knob fails here
    // until its author gives it one, and with it the run below.
    const std::map<std::string, std::string> values = {
        {"IDP_REQUESTS", "1234"},
        {"IDP_SCALE", "0.5"},
        {"IDP_THREADS", "3"},
        {"IDP_PDES", "1"},
        {"IDP_PDES_WORKERS", "2"},
        {"IDP_CSV_DIR", "csv"},
        {"IDP_UPDATE_GOLDEN", "1"},
        {"IDP_TRACE", "1"},
        {"IDP_TRACE_SAMPLE", "7"},
        {"IDP_TRACE_BUF", "64"},
        {"IDP_LOG", "error"},
        {"IDP_VERIFY", verify::kCompiledIn ? "0" : "1"},
        {"IDP_BENCH_OUT", "out"},
        {"IDP_BENCH_SMOKE", "1"},
    };
    std::vector<std::string> entries;
    for (const config::EnvVar &var : config::envTable()) {
        const auto value = values.find(var.name);
        if (value == values.end())
            ADD_FAILURE() << var.name << " has no test value";
        else
            entries.push_back(std::string(var.name) + "=" +
                              value->second);
    }

    // A governed RAID-1 under the non-default replica policy, so a
    // knob that reached the array's model would move the results.
    core::SystemConfig reference;
    reference.array.layout = array::Layout::Raid1;
    reference.array.disks = 2;
    reference.array.drive =
        disk::makeIntraDiskParallel(disk::barracudaEs750(), 2);
    reference.array.replica = array::ReplicaPolicy::Queue;
    power::GovernorParams &g = reference.array.governor;
    g.enabled = true;
    g.windowMs = 50.0;
    g.minDwellMs = 200.0;
    core::SystemConfig configured = reference;
    config::resolveEnv(entries).apply(configured);
    configured.pdesWorkers = 0; // PDES parity has its own tests

    workload::SyntheticParams wp;
    wp.requests = 1500;
    wp.meanInterArrivalMs = 10.0;
    wp.addressSpaceSectors = 100ULL * 1000 * 1000;
    const workload::Trace trace = workload::generateSynthetic(wp);
    const core::RunResult want = core::runTrace(trace, reference);
    const core::RunResult got = core::runTrace(trace, configured);

    ASSERT_EQ(got.responseHist.buckets(), want.responseHist.buckets());
    for (std::size_t b = 0; b < want.responseHist.buckets(); ++b)
        EXPECT_EQ(got.responseHist.count(b), want.responseHist.count(b))
            << "bucket " << b;
    EXPECT_EQ(got.meanResponseMs, want.meanResponseMs);
    EXPECT_EQ(got.p90ResponseMs, want.p90ResponseMs);
    EXPECT_EQ(got.p99ResponseMs, want.p99ResponseMs);
    EXPECT_EQ(got.meanRotMs, want.meanRotMs);
    EXPECT_EQ(got.power.totalEnergyJ, want.power.totalEnergyJ);
}

} // namespace
