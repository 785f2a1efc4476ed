/**
 * @file
 * Host-interconnect (bus/controller) model.
 *
 * DiskSim-style systems place controllers and buses between the host
 * and the drives; data movement occupies a channel for
 * bytes / bandwidth seconds plus a per-transfer command overhead.
 * A Bus owns one or more channels (a multi-lane HBA or several SCSI
 * strings); each transfer is dispatched to the least-backlogged
 * channel and channels drain FIFO.
 *
 * The storage array uses a Bus optionally: writes pay their host->
 * drive data transfer before reaching the disk, reads pay drive->host
 * on completion. For modern point-to-point links (SATA) the default
 * bandwidth makes this nearly invisible, exactly as in the paper —
 * which assumes "the data channel provides sufficient bandwidth" —
 * but the model lets the assumption be *checked* rather than taken.
 */

#ifndef IDP_BUS_BUS_HH
#define IDP_BUS_BUS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "telemetry/telemetry.hh"

namespace idp {
namespace bus {

/** Bus configuration. */
struct BusParams
{
    /** Per-channel bandwidth, MB/s (SATA 3.0 Gb/s era: ~300). */
    double bandwidthMBps = 300.0;
    /** Independent channels (lanes / strings). */
    std::uint32_t channels = 1;
    /** Per-transfer command/arbitration overhead, ms. */
    double perTransferOverheadMs = 0.01;
};

/** Aggregate bus statistics. */
struct BusStats
{
    std::uint64_t transfers = 0;
    std::uint64_t bytesMoved = 0;
    sim::Tick busyTicks = 0;  ///< sum over channels
    sim::Tick queueTicks = 0; ///< time transfers waited for a channel
};

/**
 * A multi-channel store-and-forward bus.
 *
 * transfer() enqueues a data movement and invokes the callback when
 * the movement completes. Transfers assigned to one channel complete
 * in FIFO order.
 */
class Bus
{
  public:
    Bus(sim::Simulator &simul, const BusParams &params);

    Bus(const Bus &) = delete;
    Bus &operator=(const Bus &) = delete;

    /**
     * Move @p bytes; @p done (any void() callable) fires at completion
     * time. The callable is constructed in place in the calendar slab,
     * so captures up to sim::SmallFn::kInlineBytes never allocate.
     */
    template <typename Fn>
    void
    transfer(std::uint64_t bytes, Fn &&done)
    {
        transfer(bytes, 0, std::forward<Fn>(done));
    }

    /**
     * Same, tagging the movement with the request id it serves so
     * telemetry can attribute the bus span.
     */
    template <typename Fn>
    void
    transfer(std::uint64_t bytes, std::uint64_t request_id, Fn &&done)
    {
        sim_.schedule(transferBooked(bytes, request_id),
                      std::forward<Fn>(done));
    }

    /**
     * Book a transfer and return its completion tick without
     * scheduling any event. The PDES engine uses this for writes whose
     * delivery lands beyond the current synchronization horizon: the
     * engine queues the delivery into the target drive's inbox itself,
     * so an event on this calendar would fire a round too late.
     * Channel accounting, stats and telemetry match transfer() exactly.
     */
    sim::Tick transferBooked(std::uint64_t bytes,
                             std::uint64_t request_id);

    /** Duration one transfer of @p bytes occupies a channel. */
    sim::Tick transferTicks(std::uint64_t bytes) const;

    /** transferTicks for a parameter set, without a Bus instance —
     *  the PDES lookahead derivation needs the minimum (one-sector)
     *  transfer latency before any simulator exists. */
    static sim::Tick minTransferTicks(const BusParams &params,
                                      std::uint64_t bytes);

    /** Utilization of the whole bus over the observed horizon. */
    double utilization() const;

    const BusStats &stats() const { return stats_; }
    const BusParams &params() const { return params_; }

  private:
    sim::Simulator &sim_;
    BusParams params_;
    /** Earliest time each channel frees up. */
    std::vector<sim::Tick> channelFreeAt_;
    BusStats stats_;
    telemetry::CountSource counts_;
};

} // namespace bus
} // namespace idp

#endif // IDP_BUS_BUS_HH
