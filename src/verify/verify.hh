/**
 * @file
 * Runtime invariant-checking hooks — the only verify header module
 * code should include.
 *
 * Compile-time guard: building with IDP_VERIFY=0 (cmake
 * -DIDP_VERIFY=OFF) turns activeChecker() into constexpr nullptr, so
 * every hook below folds to nothing — checking is zero-cost, not
 * merely cheap. With the guard on (the default) the cost of a
 * disabled run is one thread-local load and branch per hook, bounded
 * by bench/micro_simcore: InvariantChecker::current() is an inline
 * read of a class-static thread_local. With a checker installed, the
 * per-request checks are inline too — a few compares, a ledger
 * probe where the law needs one, and a plain count in state owned by
 * the calling calendar — and only a violation leaves the caller, for
 * a cold helper that builds the message.
 *
 * Runtime control is per run: core::Run, which every driver builds
 * its run with, installs an InvariantChecker for the duration of a
 * run unless SystemConfig::checkInvariants is off (mains pass
 * IDP_VERIFY), and the hooks see it through the thread-local current.
 * Tests install their own checker (often in Record mode) through
 * VerifyScope.
 *
 * The hooks deliberately observe and never mutate: an installed
 * checker cannot perturb event order, RNG streams, or statistics, so
 * verified runs stay byte-identical to unverified ones.
 */

#ifndef IDP_VERIFY_VERIFY_HH
#define IDP_VERIFY_VERIFY_HH

#include "verify/invariant_checker.hh"

#ifndef IDP_VERIFY
#define IDP_VERIFY 1
#endif

namespace idp {
namespace verify {

#if IDP_VERIFY
constexpr bool kCompiledIn = true;

inline InvariantChecker *activeChecker()
{
    return InvariantChecker::current();
}
#else
constexpr bool kCompiledIn = false;

constexpr InvariantChecker *activeChecker() { return nullptr; }
#endif

// ---------------------------------------------------------------
// Event-kernel hooks
// ---------------------------------------------------------------

/** An event is about to fire at @p when with the calendar tagged
 *  @p domain (Simulator::verifyDomain) and the clock at @p now. */
inline void
onEventFire(std::uint32_t domain, sim::Tick now, sim::Tick when)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkKernelTime(domain, now, when);
}

// ---------------------------------------------------------------
// Disk-level hooks (dev = DiskDrive::telemetryId)
// ---------------------------------------------------------------

/** A host-visible request entered DiskDrive::submit. */
inline void
onDiskSubmit(std::uint32_t dev, std::uint64_t id, sim::Tick arrival,
             sim::Tick now)
{
    if (InvariantChecker *vc = activeChecker())
        vc->diskSubmit(dev, id, arrival, now);
}

/** A host-visible request completed (cache hit or media access). */
inline void
onDiskComplete(std::uint32_t dev, std::uint64_t id, sim::Tick done,
               sim::Tick min_service)
{
    if (InvariantChecker *vc = activeChecker())
        vc->diskComplete(dev, id, done, min_service);
}

/** Occupancy conservation probe, called at service start/end. */
inline void
onDiskOccupancy(std::uint32_t dev, std::size_t in_flight,
                std::uint32_t busy_arms, std::uint32_t total_arms,
                std::uint32_t active_seeks, std::uint32_t max_seeks,
                std::uint32_t active_transfers,
                std::uint32_t max_transfers)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkDiskOccupancy(dev, in_flight, busy_arms, total_arms,
                               active_seeks, max_seeks,
                               active_transfers, max_transfers);
}

/**
 * A media access completed at @p done; its maintained completion
 * floor (the PDES dynamic-horizon ingredient) must be admissible,
 * i.e. never in the future of the actual completion.
 */
inline void
onDiskServiceBound(std::uint32_t dev, sim::Tick floor, sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkServiceBound(dev, floor, done);
}

// ---------------------------------------------------------------
// Array-level hooks (RAID split/join accounting)
// ---------------------------------------------------------------

/** A logical request fanned out under @p join_id. */
inline void
onArraySplit(std::uint64_t join_id, sim::Tick arrival, sim::Tick now)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySplit(join_id, arrival, now);
}

/** One sub-request was issued for @p join_id (incl. deferred RMW). */
inline void
onArraySub(std::uint64_t join_id)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySub(join_id);
}

/** One sub-request of @p join_id finished. */
inline void
onArraySubFinish(std::uint64_t join_id, sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySubFinish(join_id, done);
}

/** The logical request behind @p join_id completed. */
inline void
onArrayJoin(std::uint64_t join_id, sim::Tick arrival, sim::Tick done)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arrayJoin(join_id, arrival, done);
}

/** A fan-out produced a sub-request outside the member disk's
 *  [0, sectors) range — layout math lost a request. */
inline void
onArraySubRange(std::uint32_t dev, std::uint64_t lba,
                std::uint32_t sectors, std::uint64_t disk_sectors)
{
    if (InvariantChecker *vc = activeChecker())
        vc->arraySubRange(dev, lba, sectors, disk_sectors);
}

// ---------------------------------------------------------------
// Mode/energy accounting hooks
// ---------------------------------------------------------------

/** A drive closed its mode books: @p total must conserve (wall tiles
 *  total, standby within idle) and the RPM segments must tile it. */
inline void
onModeAccounting(std::uint32_t dev, const stats::ModeTimes &total,
                 const stats::ModeTimes &seg_sum, std::uint32_t arms)
{
    if (InvariantChecker *vc = activeChecker())
        vc->checkModeAccounting(dev, total, seg_sum, arms);
}

// ---------------------------------------------------------------
// Rebuild-engine hooks (spare reconstruction conservation)
// ---------------------------------------------------------------

/** Reconstruction of chunk @p chunk started (reads issued). */
inline void
onRebuildChunk(std::uint64_t chunk)
{
    if (InvariantChecker *vc = activeChecker())
        vc->rebuildChunk(chunk);
}

/** The spare write materializing chunk @p chunk was issued. */
inline void
onRebuildSpareWrite(std::uint64_t chunk)
{
    if (InvariantChecker *vc = activeChecker())
        vc->rebuildSpareWrite(chunk);
}

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_VERIFY_HH
