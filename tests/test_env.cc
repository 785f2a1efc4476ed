/**
 * @file
 * The configuration edge: the knob table, its one resolver, and the
 * one bad-value policy. Every case below resolves a given list of
 * NAME=value entries; nothing here touches the process environment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "config/env.hh"

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
        // Zero values runService accepts and the README documents.
        {"IDP_SERVE_MAX_INFLIGHT=0", nullptr,
         [](const Env &e) { return e.serveMaxInFlight == 0u; }},
        {"IDP_SERVE_SNAPSHOT_MS=0", nullptr,
         [](const Env &e) { return e.serveSnapshotMs == 0.0; }},
        {"IDP_SERVE_WARMUP=0", nullptr,
         [](const Env &e) { return e.serveWarmup == 0.0; }},
        {"IDP_SERVE_OPEN_FRACTION=0", nullptr,
         [](const Env &e) { return e.serveOpenFraction == 0.0; }},
        // Malformed numbers exit instead of defaulting silently.
        {"IDP_SCALE=abc", "IDP_SCALE: expected a finite number > 0", {}},
        {"IDP_REBUILD_YIELD=abc",
         "IDP_REBUILD_YIELD: expected a whole number from 0", {}},
        {"IDP_REQUESTS=abc",
         "IDP_REQUESTS: expected a whole number from 1", {}},
        {"IDP_REBUILD_CHUNK=abc", "IDP_REBUILD_CHUNK: expected", {}},
        {"IDP_REBUILD_MBPS=abc",
         "IDP_REBUILD_MBPS: expected a finite number >= 0", {}},
        {"IDP_SERVE_SECONDS=not-a-number", "IDP_SERVE_SECONDS: expected",
         {}},
        {"IDP_SERVE_TENANTS=many", "IDP_SERVE_TENANTS: expected", {}},
        // Empty means the default; "true" is a switch spelling.
        {"IDP_PDES=", nullptr,
         [](const Env &e) { return e.pdesWorkerCount() == 0u; }},
        {"IDP_BENCH_SMOKE=true", nullptr,
         [](const Env &e) { return e.benchSmoke; }},
        // Enums exit like every other knob (no core dump).
        {"IDP_REPLICA=bogus",
         "IDP_REPLICA: expected one of queue\\|position\\|positioning",
         {}},
        {"IDP_GOVERNOR=2", "IDP_GOVERNOR: expected 1\\|0\\|true", {}},
        // Not a knob: names outside the table change nothing.
        {"IDP_PDES_HORIZON=bogus", nullptr,
         [](const Env &e) { return e.pdesWorkerCount() == 0u; }},
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
    EXPECT_FALSE(resolved.governor.has_value());
    EXPECT_FALSE(resolved.serveTenants.has_value());
    EXPECT_EQ(resolved.logLevel, sim::LogLevel::Warn);

    // Unset overrides leave a configuration exactly as it was.
    serve::ServeParams p;
    p.tenants = 42;
    resolved.apply(p);
    EXPECT_EQ(p.tenants, 42u);
}

} // namespace
