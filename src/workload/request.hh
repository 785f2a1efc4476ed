/**
 * @file
 * The I/O request type flowing through the whole stack.
 *
 * A request is expressed against a *device* (the disk number of the
 * original multi-disk system the trace was collected on) plus an LBA
 * within that device. Storage-system layouts (pass-through MD,
 * concatenated HC-SD, RAID striping) translate the (device, lba) pair
 * into per-physical-disk accesses.
 */

#ifndef IDP_WORKLOAD_REQUEST_HH
#define IDP_WORKLOAD_REQUEST_HH

#include <cstdint>
#include <vector>

#include "geom/geometry.hh"
#include "sim/types.hh"

namespace idp {
namespace workload {

/** Device ids are 16-bit: the paper's widest system has 24 disks. */
constexpr std::uint32_t kMaxDevices = 1u << 16;

/**
 * One logical I/O request. Fields are ordered widest first so the
 * record packs into 32 bytes with no padding: every trace, queued
 * request and fan-out buffer holds these by value.
 */
struct IoRequest
{
    std::uint64_t id = 0;
    sim::Tick arrival = 0; ///< issue time
    geom::Lba lba = 0;     ///< LBA within the source device
    std::uint32_t sectors = 1;
    /** Source device in the traced system, < kMaxDevices. */
    std::uint16_t device = 0;
    bool isRead = true;
    /**
     * Background work (scrubbing, defragmentation, archival scans —
     * the tasks freeblock scheduling [24] targets). The disk services
     * background requests only when no foreground request is pending,
     * so an intra-disk parallel drive's spare arms soak them up with
     * minimal foreground impact (paper Section 5).
     */
    bool background = false;

    std::uint64_t bytes() const
    {
        return static_cast<std::uint64_t>(sectors) * geom::kSectorBytes;
    }
};
static_assert(sizeof(IoRequest) == 32,
              "IoRequest must stay a 32-byte record");

/** A full trace: requests sorted by arrival time. */
using Trace = std::vector<IoRequest>;

/** Validate ordering/ids; fatal on malformed traces. */
void validateTrace(const Trace &trace);

/** Aggregate facts about a trace (printed by benches/examples). */
struct TraceSummary
{
    std::uint64_t requests = 0;
    std::uint64_t readRequests = 0;
    std::uint64_t totalBytes = 0;
    std::uint32_t devices = 0;
    double durationSeconds = 0.0;
    double meanInterArrivalMs = 0.0;
    double meanSizeKB = 0.0;
    double readFraction = 0.0;
};

/** Compute a TraceSummary. */
TraceSummary summarize(const Trace &trace);

} // namespace workload
} // namespace idp

#endif // IDP_WORKLOAD_REQUEST_HH
