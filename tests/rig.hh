/**
 * @file
 * Test rigs: a Simulator plus one drive or one array, a completion
 * recorder, and submitAt.
 */

#ifndef IDP_TESTS_RIG_HH
#define IDP_TESTS_RIG_HH

#include <cstdint>
#include <vector>

#include "array/storage_array.hh"
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

} // namespace test
} // namespace idp

#endif // IDP_TESTS_RIG_HH
