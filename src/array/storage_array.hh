/**
 * @file
 * Multi-disk storage node: layouts, request fan-out, and join logic.
 *
 * Layouts:
 *  - PassThrough: request.device selects the physical disk directly;
 *    models the original traced multi-disk system (MD).
 *  - Concat: every traced device's block space is laid out
 *    sequentially on ONE physical disk — the paper's HC-SD migration
 *    ("HC-SD is populated with all the data from D1, followed by all
 *    the data in D2, ...").
 *  - Raid0: striping over all disks (the paper's synthetic-workload
 *    arrays, Section 7.3).
 *  - Raid1: mirrored pair-sets; reads go to the replica whose drive
 *    prices the access cheaper (positioning oracle + backlog; see
 *    ReplicaPolicy), writes to both.
 *  - Raid5: rotating parity; small writes expand into the classic
 *    read-modify-write (read old data + old parity, then write new
 *    data + new parity, with the writes dependent on the reads).
 */

#ifndef IDP_ARRAY_STORAGE_ARRAY_HH
#define IDP_ARRAY_STORAGE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk_drive.hh"
#include "power/governor.hh"
#include "power/power_model.hh"
#include "sim/id_table.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"
#include "telemetry/telemetry.hh"
#include "workload/request.hh"

namespace idp {
namespace array {

class ArrayBridge;
class RebuildEngine;
struct RebuildParams;

/** Data layout across the array's disks. */
enum class Layout
{
    PassThrough,
    Concat,
    Raid0,
    Raid1,
    Raid5,
};

/**
 * How RAID-1 reads choose between two healthy replicas.
 *
 * Positioning prices each replica with
 * disk::DiskDrive::readPriceTicks — the same seek/rotation oracle the
 * intra-disk scheduler uses to pick an arm, lifted one level up the
 * stack (replica choice as arm choice) — and routes to the cheaper
 * one. Queue is the legacy policy: shallower queue, round-robin on
 * ties.
 */
enum class ReplicaPolicy
{
    Positioning,
    Queue,
};

/** Array configuration. */
struct ArrayParams
{
    Layout layout = Layout::PassThrough;
    std::uint32_t disks = 1;
    disk::DriveSpec drive;
    /** Stripe unit for Raid0/Raid5, in sectors (128 = 64 KB). */
    std::uint32_t stripeSectors = 128;
    /** RAID-1 read replica selection (see ReplicaPolicy). */
    ReplicaPolicy replica = ReplicaPolicy::Positioning;
    /**
     * Sectors of each *traced* device (PassThrough bounds checking and
     * Concat offsets). Empty = derived from the drive capacity.
     */
    std::vector<std::uint64_t> deviceSectors;

    /**
     * Model the host interconnect: writes pay host->drive data
     * movement before reaching a disk, reads pay drive->host on
     * completion. Off by default (the paper assumes ample channel
     * bandwidth; enabling this checks the assumption).
     */
    bool useBus = false;
    bus::BusParams bus;

    /**
     * Online energy governor (power::Governor): per-drive RPM and
     * actuator-parking control under a latency SLO. Disabled by
     * default; under PDES its control ticks run as serial steps.
     */
    power::GovernorParams governor;
};

/** Completion callback for a *logical* request. */
using LogicalCompletionFn =
    std::function<void(const workload::IoRequest &, sim::Tick)>;

/** Array-level statistics. */
struct ArrayStats
{
    std::uint64_t logicalArrivals = 0;
    std::uint64_t logicalCompletions = 0;
    /** Member accesses the fan-outs issued (RAID-5 deferred writes
     *  included), and those whose range had to be pinned inside the
     *  member. */
    std::uint64_t subRequests = 0;
    std::uint64_t subClamped = 0;
    /** RAID-1 positioning-priced reads: routed by a price difference,
     *  or tied and routed by queue depth / round-robin. */
    std::uint64_t replicaPriced = 0;
    std::uint64_t replicaTies = 0;
    /**
     * Sub-requests that completed on a member that had already been
     * taken offline by failDisk(): the completion is dropped with
     * accounting — it still resolves its join (conservation) but
     * feeds no service statistics, and the join it belonged to is
     * tainted.
     */
    std::uint64_t droppedSubCompletions = 0;
    /** Logical requests whose join saw >= 1 dropped sub-completion;
     *  they complete (and count) but contribute no response sample. */
    std::uint64_t taintedJoins = 0;
    stats::SampleSet responseMs{1u << 20};
    stats::Histogram responseHist = stats::makeResponseHistogram();
    stats::Histogram rotHist = stats::makeRotLatencyHistogram();
    /** Moments only: Figure 5 reads rotHist and the mean. */
    stats::SampleSet rotMs{stats::SampleSet::kMomentsOnly};
};

/**
 * A storage node made of identical disks under one layout.
 */
class StorageArray
{
  public:
    /**
     * @p bridge is null for serial runs (everything on @p simul). A
     * PDES run passes its engine: member drives are then built on the
     * bridge's per-drive calendars, the bus on its array-phase
     * calendar, and @p simul is the coordinator calendar the workload
     * feed schedules on.
     */
    StorageArray(sim::Simulator &simul, const ArrayParams &params,
                 LogicalCompletionFn on_complete = nullptr,
                 ArrayBridge *bridge = nullptr);
    ~StorageArray(); // = default; RebuildEngine is incomplete here

    /** Submit a logical request at the current simulated time. */
    void submit(const workload::IoRequest &req);

    /** Physical disk count. */
    std::uint32_t diskCount() const
    {
        return static_cast<std::uint32_t>(disks_.size());
    }

    /** Access one physical disk (stats, tests). */
    const disk::DiskDrive &diskAt(std::uint32_t i) const;

    /** True when every disk is idle and no join is outstanding. */
    bool idle() const;

    const ArrayStats &stats() const { return stats_; }
    const ArrayParams &params() const { return params_; }

    /** Sort the response sample set in place once the run has
     *  drained, so a reader of many quantiles stops paying for
     *  copies. The other sets keep moments only. */
    void sealStats() { stats_.responseMs.seal(); }

    /**
     * Pre-reserve the response sample buffer to its full reservoir
     * capacity (8 MB). Long-lived serving loops pay this once up
     * front so completion-path ingestion never reallocates in steady
     * state; batch sweeps skip it (many concurrent short runs would
     * multiply the fixed cost). The other sets keep moments only and
     * never allocate.
     */
    void reserveStatsCapacity()
    {
        stats_.responseMs.reserve(~std::size_t(0));
    }

    /** Logical capacity exposed by the layout, in sectors. */
    std::uint64_t logicalSectors() const { return logicalSectors_; }

    /** The host interconnect, when modeled (null otherwise). */
    const bus::Bus *hostBus() const { return bus_.get(); }

    /**
     * Take disk @p idx offline (degraded-mode operation). Only the
     * redundant layouts survive this: Raid1 serves from the mirror,
     * Raid5 reconstructs reads from the surviving row members and
     * maintains parity-only writes. Fatal on layouts with no
     * redundancy and on a disk that is already failed; panics when
     * redundancy is already exhausted.
     */
    void failDisk(std::uint32_t idx);

    /** True if disk @p idx is offline. */
    bool diskFailed(std::uint32_t idx) const;

    /**
     * Start reconstructing failed disk @p idx onto its spare (the
     * member's drive, reused in place). RAID-1 streams a mirror copy;
     * RAID-5 reads every surviving row member and XORs onto the
     * spare. The engine runs as background traffic under
     * @p params' rate limit and foreground-yield knobs; when the last
     * chunk lands the member rejoins the array. Needs either a serial
     * run or a bridge with barrier support (dynamic-horizon PDES);
     * under PDES call it through scheduleStartRebuild so the start
     * tick is barrier-synchronized. Requires diskFailed(idx) and no
     * rebuild already running; fatal on a layout with no redundancy.
     */
    void startRebuild(std::uint32_t idx, const RebuildParams &params);

    /**
     * Schedule failDisk(idx) at tick @p at on the array's calendar
     * and — when a dynamic-horizon bridge is installed — register the
     * tick as a horizon barrier so the membership flip executes as a
     * serial synchronization point (no conservative window spans it).
     */
    void scheduleFailDisk(std::uint32_t idx, sim::Tick at);

    /** Barrier-registered counterpart of startRebuild; see
     *  scheduleFailDisk. */
    void scheduleStartRebuild(std::uint32_t idx, sim::Tick at,
                              const RebuildParams &params);

    /** Forwarders the PDES engine prices its dynamic horizon with;
     *  see DiskDrive::completionBoundTicks / minServiceFloorTicks. */
    sim::Tick driveCompletionBound(std::uint32_t idx,
                                   sim::Tick round_start);
    sim::Tick driveMinServiceFloor(std::uint32_t idx) const;

    /** The running (or finished) rebuild engine; null before
     *  startRebuild. Exposes progress telemetry. */
    const RebuildEngine *rebuild() const { return rebuild_.get(); }

    /** The energy governor, when enabled (null otherwise). */
    const power::Governor *governor() const { return governor_.get(); }

    /**
     * Deconfigure one arm assembly of member @p disk_idx (Section 8
     * graceful degradation inside a member drive). Forwards to
     * DiskDrive::failArm.
     */
    void failMemberArm(std::uint32_t disk_idx, std::uint32_t arm);

    /**
     * Close every disk's mode accounting and integrate power over the
     * run. Call once, after the simulation completes.
     */
    power::PowerBreakdown finishPower();

    /** Aggregate mode times over all disks (must follow finishPower
     *  pattern: uses snapshots, safe to call anytime). */
    stats::ModeTimes modeTimesSnapshot() const;

    // -- PDES engine entry points (no-ops without a bridge) ---------

    /** Deliver an inbox sub-request to drive @p disk_idx. Runs on the
     *  drive's worker with its calendar advanced to the delivery
     *  tick. */
    void injectSub(std::uint32_t disk_idx,
                   const workload::IoRequest &sub);

    /** Replay one drive completion on the array-phase calendar, in
     *  merge order. */
    void replaySubComplete(std::uint32_t disk_idx,
                           const workload::IoRequest &sub,
                           sim::Tick done,
                           const disk::ServiceInfo &info);

  private:
    friend class RebuildEngine;

    /** One member access of a fan-out: (disk index, sub-request). */
    using Sub = std::pair<std::uint32_t, workload::IoRequest>;

    struct Join
    {
        workload::IoRequest logical;
        std::uint32_t remaining = 0;
        /** A member failed under this join: >= 1 sub-completion was
         *  dropped, so the response sample would be fiction. */
        bool tainted = false;
        /** Raid5 RMW: writes to issue once the reads complete. Drawn
         *  from deferredPool_ and returned there once issued. */
        std::vector<Sub> deferred;
    };

    sim::Simulator &sim_;
    ArrayParams params_;
    LogicalCompletionFn onComplete_;
    ArrayBridge *bridge_ = nullptr;
    std::vector<std::unique_ptr<disk::DiskDrive>> disks_;
    std::unique_ptr<bus::Bus> bus_;
    std::vector<std::uint64_t> deviceOffsets_; // Concat layout
    std::uint64_t diskSectors_ = 0;
    std::uint64_t logicalSectors_ = 0;
    std::uint64_t nextJoinId_ = 1;
    /** Outstanding logical requests by join id. */
    sim::IdTable<Join> joins_;
    /** The fan-out being built by submit(); reused for every request
     *  (fan-out never re-enters submit). */
    std::vector<Sub> fanOut_;
    /** Spare deferred-write lists, so RMW joins reuse their storage. */
    std::vector<std::vector<Sub>> deferredPool_;
    std::uint64_t rrRead_ = 0; // Raid1 tie-break
    std::vector<bool> failed_;
    std::unique_ptr<RebuildEngine> rebuild_;
    std::unique_ptr<power::Governor> governor_;
    ArrayStats stats_;
    telemetry::CountSource counts_;

    /** Clock of whichever phase is executing (sim_ when serial). */
    sim::Tick tnow() const;
    void submitSub(std::uint32_t disk_idx, workload::IoRequest sub,
                   std::uint64_t join_id);
    /** Book a staged write's bus movement and queue its delivery. */
    void replayBusWrite(std::uint32_t disk_idx,
                        const workload::IoRequest &sub);
    void onSubComplete(std::uint32_t disk_idx,
                       const workload::IoRequest &sub, sim::Tick done,
                       const disk::ServiceInfo &info);
    void finishSub(std::uint64_t join_id, sim::Tick done,
                   bool tainted);
    /** RAID-1 read routing between the healthy replicas @p a and
     *  @p b (see ReplicaPolicy). */
    std::uint32_t pickReplica(std::uint32_t a, std::uint32_t b,
                              const workload::IoRequest &sub);
    /** Rebuild finished: bring the reconstructed member back. */
    void completeRebuild(std::uint32_t idx);
    /** Layout fan-outs: append the request's member accesses to
     *  fanOut_ (and RAID-5's dependent writes to @p join). */
    void fanOutRaid0(const workload::IoRequest &req);
    void fanOutRaid1(const workload::IoRequest &req);
    void fanOutRaid5(const workload::IoRequest &req, Join &join);
};

} // namespace array
} // namespace idp

#endif // IDP_ARRAY_STORAGE_ARRAY_HH
