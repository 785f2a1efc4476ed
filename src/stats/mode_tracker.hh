/**
 * @file
 * Per-disk operating-mode time accounting.
 *
 * The paper breaks average storage-system power into the four disk
 * operating modes: idle, seeking, rotational-latency wait, and data
 * transfer (Figures 3 and 6). With intra-disk parallelism several
 * activities can overlap on one spindle, so wall time is attributed to
 * the *most active* mode by the priority transfer > seek > rot-wait >
 * idle, while per-component activity (VCM-seconds of arm motion,
 * channel-seconds of transfer) is integrated separately so the power
 * model can add the incremental energy of each active component.
 */

#ifndef IDP_STATS_MODE_TRACKER_HH
#define IDP_STATS_MODE_TRACKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace idp {
namespace stats {

/** Disk operating modes, in increasing attribution priority. */
enum class DiskMode : std::uint8_t
{
    Idle = 0,     ///< spinning, no request in service
    RotWait = 1,  ///< waiting for a sector to rotate under a head
    Seek = 2,     ///< at least one arm assembly in motion
    Transfer = 3, ///< at least one head moving data over the channel
};

/** Number of DiskMode values. */
constexpr std::size_t kNumDiskModes = 4;

/** Integrated mode/component times produced by ModeTracker. */
struct ModeTimes
{
    /** Wall time attributed to each mode, indexed by DiskMode. */
    std::array<sim::Tick, kNumDiskModes> wall{};
    /** Integral of (number of seeking VCMs) dt. */
    sim::Tick vcmSeconds = 0;
    /** Integral of (number of active channels) dt. */
    sim::Tick channelSeconds = 0;
    /** Idle wall time spent with the spindle spun down (standby). */
    sim::Tick standbyTicks = 0;
    /** Integral of (number of parked arm assemblies) dt. */
    sim::Tick parkedTicks = 0;
    /** Total observed wall time. */
    sim::Tick total = 0;

    /** Elementwise accumulate (for aggregating a disk array). */
    void merge(const ModeTimes &other);

    /** Elementwise @p a - @p b. Every field is a monotone integral,
     *  so the delta of two snapshots of one tracker is exact. */
    static ModeTimes delta(const ModeTimes &a, const ModeTimes &b);
};

/**
 * Mode times integrated over one constant-RPM stretch of a run. A
 * drive under governor control produces several; the power model
 * prices each at its own spindle speed. rpm == 0 means "the drive
 * spec's nominal speed" (runs that never shift produce exactly one
 * such segment, keeping their energy bit-identical to the historical
 * whole-run integration).
 */
struct RpmSegment
{
    std::uint32_t rpm = 0;
    ModeTimes times;
};

/**
 * Tracks overlapping disk activities and integrates per-mode wall time.
 *
 * The owning disk reports activity transitions; the tracker keeps
 * counters of concurrently active seeks / transfers / in-flight
 * requests and re-derives the wall mode on every change.
 */
class ModeTracker
{
  public:
    ModeTracker() = default;

    /** An arm started / finished a seek at time @p now. */
    void seekStart(sim::Tick now);
    void seekEnd(sim::Tick now);

    /** A head started / finished a transfer at time @p now. */
    void transferStart(sim::Tick now);
    void transferEnd(sim::Tick now);

    /** A request entered / left mechanical service at time @p now. */
    void requestStart(sim::Tick now);
    void requestEnd(sim::Tick now);

    /**
     * Spindle stopped / restarted at @p now (power management).
     * Standby time must lie within idle periods: spinning down with
     * requests in flight is a caller bug and panics.
     */
    void spinDown(sim::Tick now);
    void spinUp(sim::Tick now);

    /** True while the spindle is stopped. */
    bool spunDown() const { return spunDown_; }

    /**
     * An arm assembly was parked / unparked at @p now (actuator power
     * management). Parked time integrates into
     * ModeTimes::parkedTicks; the power model credits parked arms
     * their servo-hold power.
     */
    void armParked(sim::Tick now);
    void armUnparked(sim::Tick now);

    /** Currently parked arm count. */
    int parkedArms() const { return parked_; }

    /**
     * The spindle changed speed to @p rpm at @p now: close the
     * current RPM segment and open a new one. The first call also
     * closes the implicit initial segment (rpm 0 = spec nominal).
     */
    void rpmChange(sim::Tick now, std::uint32_t rpm);

    /** Close the books at @p now and return integrated times. */
    ModeTimes finish(sim::Tick now);

    /**
     * Close the books at @p now and return the per-RPM-segment
     * breakdown. The segments tile finish(now) exactly (integer-tick
     * conservation); a run with no rpmChange yields one segment with
     * rpm 0. Allocates — call at end of run, not on hot paths.
     */
    std::vector<RpmSegment> finishSegments(sim::Tick now);

    /** Snapshot without closing (integrates up to @p now).
     *  Allocation-free: safe on governor control ticks. */
    ModeTimes snapshot(sim::Tick now) const;

    /** Current wall-clock mode. */
    DiskMode currentMode() const;

  private:
    sim::Tick lastChange_ = 0;
    int seeks_ = 0;
    int transfers_ = 0;
    int inflight_ = 0;
    int parked_ = 0;
    bool spunDown_ = false;
    ModeTimes acc_;
    /** Closed RPM segments + the open segment's base (cumulative acc_
     *  at its start) and speed. */
    std::vector<RpmSegment> closedSegments_;
    ModeTimes segBase_;
    std::uint32_t segRpm_ = 0;

    void advanceTo(sim::Tick now);
};

} // namespace stats
} // namespace idp

#endif // IDP_STATS_MODE_TRACKER_HH
