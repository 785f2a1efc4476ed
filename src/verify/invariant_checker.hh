/**
 * @file
 * Simulation-wide runtime invariant checker.
 *
 * The simulator's conclusions rest on conservation laws that no
 * single module can see whole: every submitted request completes
 * exactly once, completions are causal (never before arrival plus a
 * minimum service), per-component time never runs backwards, a
 * drive's arm/seek/channel occupancy stays within its configured
 * budgets, and every RAID fan-out joins exactly once. The checker
 * observes those laws through the hooks in verify.hh and reports the
 * first violation either by panicking (production runs — the default)
 * or by recording it (tests that assert the checker catches seeded
 * bugs).
 *
 * Install per run with VerifyScope; the hooks find the checker
 * through a thread-local current, so concurrent sweep workers each
 * verify their own run independently.
 *
 * The per-request checks are inline: their all-clear path is a few
 * compares and a plain count, and every failure branch calls a cold
 * out-of-line helper that builds the message. Each count lives in
 * state that only one calendar's thread writes — the kernel domain's
 * clock, the drive's DiskState, or the coordinator's count for the
 * array and rebuild hooks — so a PDES run needs no atomics on the
 * hot path; observations() sums them.
 */

#ifndef IDP_VERIFY_INVARIANT_CHECKER_HH
#define IDP_VERIFY_INVARIANT_CHECKER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/id_table.hh"
#include "sim/types.hh"
#include "stats/mode_tracker.hh"

namespace idp {
namespace verify {

/** What to do when an invariant is violated. */
enum class FailMode
{
    Panic,  ///< sim::panic immediately (production runs)
    Record, ///< append to violations() and continue (checker tests)
};

class InvariantChecker
{
  public:
    explicit InvariantChecker(FailMode mode = FailMode::Panic);

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** The checker installed on this thread (null = checking off). */
    static InvariantChecker *current() { return current_; }

    // -- event kernel ------------------------------------------------
    /** Firing an event at @p when with the clock at @p now must never
     *  move time backwards within the calendar's @p domain. Serial
     *  runs use a single domain 0; a PDES run tags the coordinator,
     *  array-phase and per-drive calendars with distinct domains,
     *  because their clocks legitimately interleave at horizons while
     *  each one stays monotonic on its own. */
    void
    checkKernelTime(std::uint32_t domain, sim::Tick now, sim::Tick when)
    {
        // Serial runs grow the table lazily (single-threaded); PDES
        // runs pre-size it with reserveDomains before workers start,
        // and each calendar's domain is written only from the thread
        // running it.
        if (domain >= domains_.size()) [[unlikely]]
            reserveDomains(domain + 1);
        DomainClock &d = domains_[domain];
        ++d.observations;
        if (when < now || when < d.now) [[unlikely]]
            failKernelTime(domain, now, when, d.now);
        d.now = when;
    }

    /**
     * Pre-size the per-domain clock table / per-disk state so that a
     * PDES run's concurrent hooks never grow a vector under their
     * feet. Must be called before worker threads start observing.
     */
    void reserveDomains(std::uint32_t domains);
    void reserveDisks(std::uint32_t disks);

    // -- disk level --------------------------------------------------
    void
    diskSubmit(std::uint32_t dev, std::uint64_t id, sim::Tick arrival,
               sim::Tick now)
    {
        DiskState &d = disk(dev);
        ++d.observations;
        if (now < d.lastSeen || arrival > now) [[unlikely]]
            failSubmit(dev, id, arrival, now, d.lastSeen);
        d.lastSeen = now;
        ++d.submits;
        OutstandingEntry &e = d.outstanding[id];
        ++e.count;
        // Completion must be causal vs. the latest submission of this
        // id (a join id can be legitimately re-submitted by RAID-5
        // RMW).
        e.lastSubmit = now;
    }

    void
    diskComplete(std::uint32_t dev, std::uint64_t id, sim::Tick done,
                 sim::Tick min_service)
    {
        DiskState &d = disk(dev);
        ++d.observations;
        if (done < d.lastSeen) [[unlikely]]
            failDiskTime(dev, d.lastSeen, done);
        d.lastSeen = done;
        OutstandingEntry *e = d.outstanding.find(id);
        if (e == nullptr || e->count == 0) [[unlikely]] {
            failOverCompletion(dev, id);
            return;
        }
        ++d.completions;
        if (done < e->lastSubmit + min_service) [[unlikely]]
            failNonCausal(dev, id, done, e->lastSubmit + min_service);
        if (--e->count == 0)
            d.outstanding.erase(id);
    }

    /** Occupancy conservation: each in-flight request holds exactly
     *  one busy arm, and the motion/channel budgets are respected. */
    void
    checkDiskOccupancy(std::uint32_t dev, std::size_t in_flight,
                       std::uint32_t busy_arms, std::uint32_t total_arms,
                       std::uint32_t active_seeks,
                       std::uint32_t max_seeks,
                       std::uint32_t active_transfers,
                       std::uint32_t max_transfers)
    {
        ++disk(dev).observations;
        if (in_flight == busy_arms && busy_arms <= total_arms &&
            active_seeks <= max_seeks &&
            active_transfers <= max_transfers) [[likely]]
            return;
        failOccupancy(dev, in_flight, busy_arms, total_arms,
                      active_seeks, max_seeks, active_transfers,
                      max_transfers);
    }

    /** A completed access's maintained completion floor must not lie
     *  in the future of the actual completion tick. */
    void
    checkServiceBound(std::uint32_t dev, sim::Tick floor, sim::Tick done)
    {
        ++disk(dev).observations;
        if (floor > done) [[unlikely]]
            failServiceBound(dev, floor, done);
    }

    // -- array level -------------------------------------------------
    void
    arraySplit(std::uint64_t join_id, sim::Tick arrival, sim::Tick now)
    {
        ++coordObservations_;
        if (arrival > now) [[unlikely]]
            failSplitBeforeArrival(join_id, arrival, now);
        if (!joins_.insert(join_id, 0).second) [[unlikely]] {
            failJoinReused(join_id);
            return;
        }
        ++joinsCreated_;
    }

    void
    arraySub(std::uint64_t join_id)
    {
        ++coordObservations_;
        std::uint32_t *outstanding = joins_.find(join_id);
        if (outstanding == nullptr) [[unlikely]] {
            failSubForUnknownJoin(join_id);
            return;
        }
        ++*outstanding;
    }

    void
    arraySubFinish(std::uint64_t join_id, sim::Tick done)
    {
        ++coordObservations_;
        (void)done;
        std::uint32_t *outstanding = joins_.find(join_id);
        if (outstanding == nullptr || *outstanding == 0) [[unlikely]] {
            failSubFinishUnowed(join_id);
            return;
        }
        --*outstanding;
    }

    void
    arrayJoin(std::uint64_t join_id, sim::Tick arrival, sim::Tick done)
    {
        ++coordObservations_;
        const std::uint32_t *outstanding = joins_.find(join_id);
        if (outstanding == nullptr) [[unlikely]] {
            failJoinWithoutSplit(join_id);
            return;
        }
        if (*outstanding != 0 || done < arrival) [[unlikely]]
            failJoin(join_id, *outstanding, arrival, done);
        ++joinsCompleted_;
        joins_.erase(join_id);
    }

    /** A fan-out sub-request fell outside the member disk. */
    void arraySubRange(std::uint32_t dev, std::uint64_t lba,
                       std::uint32_t sectors,
                       std::uint64_t disk_sectors);

    // -- mode/energy accounting --------------------------------------
    /**
     * End-of-run mode-time conservation for one drive: the per-mode
     * wall times must tile the total exactly, standby time must lie
     * within idle time, the parked-arm integral must fit
     * arms x total, and the per-RPM-segment breakdown must sum to the
     * totals field-for-field (energy integrated per segment covers
     * exactly the run, no gaps or double billing at transition
     * boundaries).
     */
    void checkModeAccounting(std::uint32_t dev,
                             const stats::ModeTimes &total,
                             const stats::ModeTimes &seg_sum,
                             std::uint32_t arms);

    // -- rebuild engine ----------------------------------------------
    /** Chunk reconstruction started. The engine announces chunks
     *  0, 1, 2, ... one at a time: each announcement must name the
     *  next chunk, after the previous one got its spare write. */
    void rebuildChunk(std::uint64_t chunk);
    /** The spare write for @p chunk was issued: exactly one, for the
     *  open chunk (the rebuilt-stripe conservation law). */
    void rebuildSpareWrite(std::uint64_t chunk);

    /**
     * End-of-run conservation: every disk submit was completed, every
     * join was joined. Call after the simulator drains.
     */
    void finalize();

    /** Violations recorded so far (Record mode; empty in Panic mode
     *  unless the process would already have died). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    FailMode mode() const { return mode_; }

    /** Hook invocations observed (cheap liveness probe for tests):
     *  the sum of every domain's, drive's and the coordinator's
     *  counts. Call while no PDES window is running. */
    std::uint64_t observations() const;

  private:
    friend class VerifyScope;

    /** Cache-line size: per-domain state written by different PDES
     *  workers is aligned to it so no two workers share a line. */
    static constexpr std::size_t kLine = 64;

    struct OutstandingEntry
    {
        /** Outstanding submit count (multiset semantics: RAID RMW
         *  legitimately re-submits a join id to one disk). */
        std::uint32_t count = 0;
        /** Latest submit tick of this id: the causality floor a
         *  completion is checked against. */
        sim::Tick lastSubmit = 0;
    };

    struct alignas(kLine) DiskState
    {
        sim::IdTable<OutstandingEntry> outstanding;
        std::uint64_t submits = 0;
        std::uint64_t completions = 0;
        sim::Tick lastSeen = 0;
        std::uint64_t observations = 0;
    };

    /** One calendar's kernel clock (see checkKernelTime). */
    struct alignas(kLine) DomainClock
    {
        sim::Tick now = 0;
        std::uint64_t observations = 0;
    };

    DiskState &
    disk(std::uint32_t dev)
    {
        if (dev >= disks_.size()) [[unlikely]]
            reserveDisks(dev + 1);
        return disks_[dev];
    }

    void fail(const std::string &what);

    // Failure branches of the inline checks: each builds the message
    // the check has always reported.
    [[gnu::cold]] void failKernelTime(std::uint32_t domain,
                                      sim::Tick now, sim::Tick when,
                                      sim::Tick domain_now);
    [[gnu::cold]] void failDiskTime(std::uint32_t dev,
                                    sim::Tick last_seen, sim::Tick now);
    [[gnu::cold]] void failSubmit(std::uint32_t dev, std::uint64_t id,
                                  sim::Tick arrival, sim::Tick now,
                                  sim::Tick last_seen);
    [[gnu::cold]] void failOverCompletion(std::uint32_t dev,
                                          std::uint64_t id);
    [[gnu::cold]] void failNonCausal(std::uint32_t dev,
                                     std::uint64_t id, sim::Tick done,
                                     sim::Tick floor);
    [[gnu::cold]] void failOccupancy(
        std::uint32_t dev, std::size_t in_flight,
        std::uint32_t busy_arms, std::uint32_t total_arms,
        std::uint32_t active_seeks, std::uint32_t max_seeks,
        std::uint32_t active_transfers, std::uint32_t max_transfers);
    [[gnu::cold]] void failServiceBound(std::uint32_t dev,
                                        sim::Tick floor, sim::Tick done);
    [[gnu::cold]] void failSplitBeforeArrival(std::uint64_t join_id,
                                              sim::Tick arrival,
                                              sim::Tick now);
    [[gnu::cold]] void failJoinReused(std::uint64_t join_id);
    [[gnu::cold]] void failSubForUnknownJoin(std::uint64_t join_id);
    [[gnu::cold]] void failSubFinishUnowed(std::uint64_t join_id);
    [[gnu::cold]] void failJoinWithoutSplit(std::uint64_t join_id);
    [[gnu::cold]] void failJoin(std::uint64_t join_id,
                                std::uint32_t outstanding,
                                sim::Tick arrival, sim::Tick done);

    static inline thread_local InvariantChecker *current_ = nullptr;

    FailMode mode_;
    /** Guards violations_ in Record mode: PDES drive workers may
     *  record concurrently. Panic mode dies on first fail instead. */
    std::mutex failMutex_;
    std::vector<std::string> violations_;
    /** Indexed by dev (DiskDrive::telemetryId — dense array indices);
     *  grown on first touch serially, pre-sized by reserveDisks for
     *  PDES. Each drive's state is only touched from the calendar
     *  that owns the drive, so entries need no locks. */
    std::vector<DiskState> disks_;
    /** Indexed by kernel domain; same growth and ownership rule. */
    std::vector<DomainClock> domains_;
    // Coordinator state: the array and rebuild hooks run only on the
    // calendars of the main thread (serial, coordinator, array phase).
    std::uint64_t coordObservations_ = 0;
    /** Open joins: split, not yet joined, each with its outstanding
     *  sub-request count. arrayJoin erases the entry. */
    sim::IdTable<std::uint32_t> joins_;
    std::uint64_t joinsCreated_ = 0;
    std::uint64_t joinsCompleted_ = 0;
    /** The rebuild ledger is O(1): chunks announced so far (the next
     *  expected index) and the open chunk's spare writes. */
    std::uint64_t rebuildChunks_ = 0;
    std::uint64_t rebuildSpareWrites_ = 0;
    std::uint32_t openChunkWrites_ = 0;
};

/** Installs a checker as this thread's current one (RAII). */
class VerifyScope
{
  public:
    explicit VerifyScope(InvariantChecker *checker)
        : prev_(InvariantChecker::current_)
    {
        InvariantChecker::current_ = checker;
    }
    ~VerifyScope() { InvariantChecker::current_ = prev_; }

    VerifyScope(const VerifyScope &) = delete;
    VerifyScope &operator=(const VerifyScope &) = delete;

  private:
    InvariantChecker *prev_;
};

} // namespace verify
} // namespace idp

#endif // IDP_VERIFY_INVARIANT_CHECKER_HH
