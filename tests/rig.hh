/**
 * @file
 * Test rigs: a Simulator plus one drive or one array, a completion
 * recorder, and submitAt; and the golden-file loader.
 */

#ifndef IDP_TESTS_RIG_HH
#define IDP_TESTS_RIG_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "array/storage_array.hh"
#include "config/env.hh"
#include "disk/disk_drive.hh"
#include "sim/event_queue.hh"

namespace idp {
namespace test {

/** One drive completion as the drive reported it. */
struct Completion
{
    workload::IoRequest req;
    sim::Tick done = 0;
    disk::ServiceInfo info;
};

/** A drive on its own simulator, recording every completion. */
struct DriveRig
{
    sim::Simulator simul;
    std::vector<Completion> completions;
    disk::DiskDrive drive;

    explicit DriveRig(const disk::DriveSpec &spec)
        : drive(simul, spec,
                [this](const workload::IoRequest &r, sim::Tick t,
                       const disk::ServiceInfo &i) {
                    completions.push_back({r, t, i});
                })
    {
    }

    /** Submit @p req at @p when, which becomes its arrival. */
    void
    submitAt(sim::Tick when, workload::IoRequest req)
    {
        req.arrival = when;
        simul.schedule(when, [this, req] { drive.submit(req); });
    }
};

/** An array on its own simulator, counting logical completions. */
struct ArrayRig
{
    sim::Simulator simul;
    std::uint64_t completions = 0;
    /** Requests submitAt has scheduled. */
    std::uint64_t submitted = 0;
    array::StorageArray arr;

    explicit ArrayRig(const array::ArrayParams &params)
        : arr(simul, params,
              [this](const workload::IoRequest &, sim::Tick) {
                  ++completions;
              })
    {
    }

    /** Submit @p req at @p when, which becomes its arrival. */
    void
    submitAt(sim::Tick when, workload::IoRequest req)
    {
        req.arrival = when;
        ++submitted;
        simul.schedule(when, [this, req] { arr.submit(req); });
    }
};

/** Path of tests/golden/@p name in the source tree. */
inline std::string
goldenPath(const std::string &name)
{
    return std::string(IDP_SOURCE_DIR) + "/tests/golden/" + name;
}

/** The bytes of tests/golden/@p name ("" and a failure if missing). */
inline std::string
readGolden(const std::string &name)
{
    const std::string path = goldenPath(name);
    std::ifstream is(path);
    EXPECT_TRUE(is) << "missing golden file " << path
                    << " — generate it with IDP_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << is.rdbuf();
    return golden.str();
}

/**
 * Expect @p measured to equal tests/golden/@p name byte for byte.
 * With IDP_UPDATE_GOLDEN=1 the file is rewritten with @p measured
 * and the test is marked skipped instead; review the diff like any
 * other change. This is the one place the suite reads the process
 * environment.
 */
inline void
expectGolden(const std::string &name, const std::string &measured)
{
    const std::string path = goldenPath(name);
    if (config::resolveEnv().updateGolden) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << measured;
        GTEST_SKIP() << "golden file refreshed: " << path;
    }
    EXPECT_EQ(readGolden(name), measured)
        << "output drifted from " << path
        << "\nIf this change is intentional, refresh with "
           "IDP_UPDATE_GOLDEN=1 and review the diff.";
}

} // namespace test
} // namespace idp

#endif // IDP_TESTS_RIG_HH
