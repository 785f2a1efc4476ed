#include "verify/verify.hh"

#include <sstream>

#include "sim/logging.hh"

namespace idp {
namespace verify {

InvariantChecker::InvariantChecker(FailMode mode) : mode_(mode) {}

void
InvariantChecker::fail(const std::string &what)
{
    if (mode_ == FailMode::Panic)
        sim::panic("invariant violated: " + what);
    // Record mode may be fed from concurrent PDES drive workers.
    std::lock_guard<std::mutex> lock(failMutex_);
    violations_.push_back(what);
}

void
InvariantChecker::reserveDomains(std::uint32_t domains)
{
    if (domains > domains_.size())
        domains_.resize(domains);
}

void
InvariantChecker::reserveDisks(std::uint32_t disks)
{
    if (disks > disks_.size())
        disks_.resize(disks);
}

std::uint64_t
InvariantChecker::observations() const
{
    std::uint64_t n = coordObservations_;
    for (const DomainClock &d : domains_)
        n += d.observations;
    for (const DiskState &d : disks_)
        n += d.observations;
    return n;
}

void
InvariantChecker::failKernelTime(std::uint32_t domain, sim::Tick now,
                                 sim::Tick when, sim::Tick domain_now)
{
    if (when < now) {
        std::ostringstream os;
        os << "event kernel: firing at " << when
           << " with the clock already at " << now;
        fail(os.str());
    }
    if (when < domain_now) {
        std::ostringstream os;
        os << "event kernel: time ran backwards in domain " << domain
           << " (" << domain_now << " -> " << when << ")";
        fail(os.str());
    }
}

void
InvariantChecker::failDiskTime(std::uint32_t dev, sim::Tick last_seen,
                               sim::Tick now)
{
    std::ostringstream os;
    os << "disk " << dev << ": time ran backwards (" << last_seen
       << " -> " << now << ")";
    fail(os.str());
}

void
InvariantChecker::failSubmit(std::uint32_t dev, std::uint64_t id,
                             sim::Tick arrival, sim::Tick now,
                             sim::Tick last_seen)
{
    if (now < last_seen)
        failDiskTime(dev, last_seen, now);
    if (arrival > now) {
        std::ostringstream os;
        os << "disk " << dev << ": request " << id
           << " submitted before its arrival (" << arrival << " > "
           << now << ")";
        fail(os.str());
    }
}

void
InvariantChecker::failOverCompletion(std::uint32_t dev, std::uint64_t id)
{
    std::ostringstream os;
    os << "disk " << dev << ": request " << id
       << " completed more times than it was submitted";
    fail(os.str());
}

void
InvariantChecker::failNonCausal(std::uint32_t dev, std::uint64_t id,
                                sim::Tick done, sim::Tick floor)
{
    std::ostringstream os;
    os << "disk " << dev << ": request " << id << " completed at "
       << done << ", before submit + minimum service (" << floor
       << ")";
    fail(os.str());
}

void
InvariantChecker::failServiceBound(std::uint32_t dev, sim::Tick floor,
                                   sim::Tick done)
{
    std::ostringstream os;
    os << "disk " << dev << ": completion floor " << floor
       << " lies after the actual completion " << done
       << " -- dynamic-horizon bound is inadmissible";
    fail(os.str());
}

void
InvariantChecker::failOccupancy(
    std::uint32_t dev, std::size_t in_flight, std::uint32_t busy_arms,
    std::uint32_t total_arms, std::uint32_t active_seeks,
    std::uint32_t max_seeks, std::uint32_t active_transfers,
    std::uint32_t max_transfers)
{
    std::ostringstream os;
    if (in_flight != busy_arms) {
        os << "disk " << dev << ": " << in_flight
           << " in-flight requests but " << busy_arms
           << " busy arms (each access must hold exactly one arm)";
        fail(os.str());
    } else if (busy_arms > total_arms) {
        os << "disk " << dev << ": " << busy_arms
           << " busy arms exceed the " << total_arms << " configured";
        fail(os.str());
    } else if (active_seeks > max_seeks) {
        os << "disk " << dev << ": " << active_seeks
           << " concurrent seeks exceed the motion budget "
           << max_seeks;
        fail(os.str());
    } else if (active_transfers > max_transfers) {
        os << "disk " << dev << ": " << active_transfers
           << " concurrent transfers exceed the channel budget "
           << max_transfers;
        fail(os.str());
    }
}

void
InvariantChecker::failSplitBeforeArrival(std::uint64_t join_id,
                                         sim::Tick arrival,
                                         sim::Tick now)
{
    std::ostringstream os;
    os << "array: join " << join_id << " split before its arrival ("
       << arrival << " > " << now << ")";
    fail(os.str());
}

void
InvariantChecker::failJoinReused(std::uint64_t join_id)
{
    std::ostringstream os;
    os << "array: join id " << join_id << " reused";
    fail(os.str());
}

void
InvariantChecker::failSubForUnknownJoin(std::uint64_t join_id)
{
    std::ostringstream os;
    os << "array: sub-request issued for unknown join " << join_id;
    fail(os.str());
}

void
InvariantChecker::failSubFinishUnowed(std::uint64_t join_id)
{
    std::ostringstream os;
    os << "array: sub-completion for join " << join_id
       << " with no outstanding sub-requests";
    fail(os.str());
}

void
InvariantChecker::failJoinWithoutSplit(std::uint64_t join_id)
{
    std::ostringstream os;
    os << "array: join " << join_id << " completed without a split";
    fail(os.str());
}

void
InvariantChecker::failJoin(std::uint64_t join_id,
                           std::uint32_t outstanding, sim::Tick arrival,
                           sim::Tick done)
{
    if (outstanding != 0) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed with "
           << outstanding << " sub-requests outstanding";
        fail(os.str());
    }
    if (done < arrival) {
        std::ostringstream os;
        os << "array: join " << join_id << " completed at " << done
           << ", before its arrival " << arrival;
        fail(os.str());
    }
}

void
InvariantChecker::arraySubRange(std::uint32_t dev, std::uint64_t lba,
                                std::uint32_t sectors,
                                std::uint64_t disk_sectors)
{
    ++coordObservations_;
    std::ostringstream os;
    os << "array: sub-request [" << lba << ", " << lba + sectors
       << ") for disk " << dev << " lies beyond the member's "
       << disk_sectors << " sectors -- fan-out math lost a request";
    fail(os.str());
}

void
InvariantChecker::checkModeAccounting(std::uint32_t dev,
                                      const stats::ModeTimes &total,
                                      const stats::ModeTimes &seg_sum,
                                      std::uint32_t arms)
{
    ++disk(dev).observations;
    sim::Tick wall_sum = 0;
    for (sim::Tick w : total.wall)
        wall_sum += w;
    if (wall_sum != total.total) {
        std::ostringstream os;
        os << "disk " << dev << ": mode wall times sum to " << wall_sum
           << " ticks but total is " << total.total
           << " (mode attribution must tile the run)";
        fail(os.str());
    }
    const auto idle =
        total.wall[static_cast<std::size_t>(stats::DiskMode::Idle)];
    if (total.standbyTicks > idle) {
        std::ostringstream os;
        os << "disk " << dev << ": " << total.standbyTicks
           << " standby ticks exceed the " << idle
           << " idle ticks (standby must lie within idle)";
        fail(os.str());
    }
    if (total.parkedTicks >
        static_cast<sim::Tick>(arms) * total.total) {
        std::ostringstream os;
        os << "disk " << dev << ": parked-arm integral "
           << total.parkedTicks << " exceeds " << arms
           << " arms x total " << total.total;
        fail(os.str());
    }
    const bool segs_tile = seg_sum.total == total.total &&
        seg_sum.wall == total.wall &&
        seg_sum.vcmSeconds == total.vcmSeconds &&
        seg_sum.channelSeconds == total.channelSeconds &&
        seg_sum.standbyTicks == total.standbyTicks &&
        seg_sum.parkedTicks == total.parkedTicks;
    if (!segs_tile) {
        std::ostringstream os;
        os << "disk " << dev << ": RPM segments sum to "
           << seg_sum.total << " ticks vs total " << total.total
           << " (segments must tile the run field-for-field; drift at "
              "a transition boundary double-bills or drops energy)";
        fail(os.str());
    }
}

namespace {

std::string
missingSpareWrite(std::uint64_t chunk)
{
    std::ostringstream os;
    os << "rebuild: chunk " << chunk
       << " saw 0 spare writes (must be exactly one)";
    return os.str();
}

} // namespace

void
InvariantChecker::rebuildChunk(std::uint64_t chunk)
{
    ++coordObservations_;
    if (chunk != rebuildChunks_) {
        std::ostringstream os;
        if (chunk < rebuildChunks_)
            os << "rebuild: chunk " << chunk << " reconstructed twice";
        else
            os << "rebuild: chunk " << chunk
               << " announced out of order (expected chunk "
               << rebuildChunks_ << ")";
        fail(os.str());
        return;
    }
    // One chunk at a time: the open one must have its spare write
    // before the engine moves on.
    if (rebuildChunks_ > 0 && openChunkWrites_ == 0)
        fail(missingSpareWrite(rebuildChunks_ - 1));
    ++rebuildChunks_;
    openChunkWrites_ = 0;
}

void
InvariantChecker::rebuildSpareWrite(std::uint64_t chunk)
{
    ++coordObservations_;
    if (chunk >= rebuildChunks_) {
        std::ostringstream os;
        os << "rebuild: spare write for unannounced chunk " << chunk;
        fail(os.str());
        return;
    }
    if (chunk + 1 != rebuildChunks_) {
        std::ostringstream os;
        os << "rebuild: spare write for chunk " << chunk
           << " after chunk " << rebuildChunks_ - 1
           << " was announced";
        fail(os.str());
        return;
    }
    if (++openChunkWrites_ > 1) {
        std::ostringstream os;
        os << "rebuild: chunk " << chunk << " written to the spare "
           << openChunkWrites_ << " times (must be exactly once)";
        fail(os.str());
        return;
    }
    ++rebuildSpareWrites_;
}

void
InvariantChecker::finalize()
{
    for (std::size_t dev = 0; dev < disks_.size(); ++dev) {
        const DiskState &d = disks_[dev];
        if (!d.outstanding.empty()) {
            std::ostringstream os;
            os << "disk " << dev << ": " << d.outstanding.size()
               << " request id(s) never completed";
            fail(os.str());
        }
        if (d.submits != d.completions) {
            std::ostringstream os;
            os << "disk " << dev << ": " << d.submits
               << " submits vs " << d.completions << " completions";
            fail(os.str());
        }
    }
    if (!joins_.empty()) {
        std::ostringstream os;
        os << "array: " << joins_.size() << " join(s) never completed";
        fail(os.str());
    }
    if (joinsCreated_ != joinsCompleted_) {
        std::ostringstream os;
        os << "array: " << joinsCreated_ << " splits vs "
           << joinsCompleted_ << " joins";
        fail(os.str());
    }
    // Rebuilt-stripe conservation: every announced chunk got exactly
    // one spare write (over-writes fail at the hook, and so does a
    // closed chunk left unwritten; the open chunk closes here).
    if (rebuildChunks_ != rebuildSpareWrites_) {
        std::ostringstream os;
        os << "rebuild: " << rebuildChunks_ << " chunks vs "
           << rebuildSpareWrites_ << " spare writes";
        fail(os.str());
    }
    if (rebuildChunks_ > 0 && openChunkWrites_ == 0)
        fail(missingSpareWrite(rebuildChunks_ - 1));
}

} // namespace verify
} // namespace idp
