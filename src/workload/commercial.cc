#include "workload/commercial.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idp {
namespace workload {

const std::vector<Commercial> &
allCommercial()
{
    static const std::vector<Commercial> all = {
        Commercial::Financial, Commercial::Websearch, Commercial::TpcC,
        Commercial::TpcH};
    return all;
}

std::string
commercialName(Commercial kind)
{
    switch (kind) {
      case Commercial::Financial:
        return "Financial";
      case Commercial::Websearch:
        return "Websearch";
      case Commercial::TpcC:
        return "TPC-C";
      case Commercial::TpcH:
        return "TPC-H";
    }
    sim::panic("commercialName: bad enum");
}

const WorkloadModel &
workloadModel(Commercial kind)
{
    // Table 2 of the paper plus generator tuning. Arrival means are
    // calibrated (see DESIGN.md §5) so MD absorbs each stream while a
    // single conventional HC-SD saturates on all but TPC-H.
    static const WorkloadModel financial = [] {
        WorkloadModel m;
        m.name = "Financial";
        m.paperRequests = 5334945;
        m.disks = 24;
        m.capacityGB = 19.07;
        m.rpm = 10000;
        m.platters = 4;
        // OLTP: write-heavy small requests, hot devices and hot
        // extents, bursty arrivals.
        m.readFraction = 0.23;
        m.meanInterArrivalMs = 6.4;
        m.minSectors = 8;
        m.maxSectors = 16;
        m.deviceZipfTheta = 1.1;
        m.blockZipfTheta = 0.9;
        m.sequentialFraction = 0.05;
        m.burstFraction = 0.30;
        m.burstLength = 8;
        m.phaseSeconds = 4.0;
        m.phaseDepth = 0.60;
        return m;
    }();
    static const WorkloadModel websearch = [] {
        WorkloadModel m;
        m.name = "Websearch";
        m.paperRequests = 4579809;
        m.disks = 6;
        m.capacityGB = 19.07;
        m.rpm = 10000;
        m.platters = 4;
        // Index lookups: nearly all reads, random placement.
        m.readFraction = 0.99;
        m.meanInterArrivalMs = 6.0;
        m.minSectors = 16;
        m.maxSectors = 64;
        m.deviceZipfTheta = 0.2;
        m.blockZipfTheta = 0.0;
        m.sequentialFraction = 0.02;
        m.burstFraction = 0.0;
        m.burstLength = 1;
        m.phaseSeconds = 4.0;
        m.phaseDepth = 0.50;
        return m;
    }();
    static const WorkloadModel tpcc = [] {
        WorkloadModel m;
        m.name = "TPC-C";
        m.paperRequests = 6155547;
        m.disks = 4;
        m.capacityGB = 37.17;
        m.rpm = 10000;
        m.platters = 4;
        // OLTP benchmark: ~2:1 reads, small random pages, moderate
        // buffer-pool-filtered locality.
        m.readFraction = 0.65;
        m.meanInterArrivalMs = 6.0;
        m.minSectors = 8;
        m.maxSectors = 16;
        m.deviceZipfTheta = 0.2;
        m.blockZipfTheta = 0.8;
        m.sequentialFraction = 0.05;
        m.burstFraction = 0.10;
        m.burstLength = 5;
        m.phaseSeconds = 4.0;
        m.phaseDepth = 0.50;
        return m;
    }();
    static const WorkloadModel tpch = [] {
        WorkloadModel m;
        m.name = "TPC-H";
        m.paperRequests = 4228725;
        m.disks = 15;
        m.capacityGB = 35.96;
        m.rpm = 7200;
        m.platters = 6;
        // Decision support: large mostly-sequential scans. The paper
        // reports the 8.76 ms mean inter-arrival explicitly.
        m.readFraction = 0.95;
        m.meanInterArrivalMs = 8.76;
        m.minSectors = 64;
        m.maxSectors = 256;
        m.deviceZipfTheta = 0.0;
        m.blockZipfTheta = 0.0;
        m.sequentialFraction = 0.70;
        m.burstFraction = 0.10;
        m.burstLength = 2;
        m.phaseSeconds = 5.0;
        m.phaseDepth = 0.15;
        return m;
    }();
    switch (kind) {
      case Commercial::Financial:
        return financial;
      case Commercial::Websearch:
        return websearch;
      case Commercial::TpcC:
        return tpcc;
      case Commercial::TpcH:
        return tpch;
    }
    sim::panic("workloadModel: bad enum");
}

namespace {

std::uint64_t
defaultSeed(Commercial kind)
{
    switch (kind) {
      case Commercial::Financial:
        return 0xF1A4C1A1ULL;
      case Commercial::Websearch:
        return 0x3EB5EA2C4ULL;
      case Commercial::TpcC:
        return 0x79CCULL;
      case Commercial::TpcH:
        return 0x79C4ULL;
    }
    sim::panic("defaultSeed: bad enum");
}

/** Deterministic scatter so hot Zipf ranks aren't physically adjacent. */
std::uint64_t
scatter(std::uint64_t x, std::uint64_t n)
{
    return (x * 2654435761ULL) % n;
}

} // namespace

Trace
generateCommercial(const CommercialParams &params)
{
    const WorkloadModel &model = workloadModel(params.kind);
    sim::simAssert(params.requests > 0, "commercial: empty trace");
    sim::simAssert(params.intensityScale > 0.0,
                   "commercial: bad intensity");
    sim::simAssert(model.disks <= kMaxDevices,
                   "commercial: device count exceeds the 16-bit "
                   "device id range");

    sim::Rng rng(params.seed ? params.seed : defaultSeed(params.kind));
    const std::uint64_t device_sectors = static_cast<std::uint64_t>(
        model.capacityGB * 1e9 / geom::kSectorBytes);

    // Popularity samplers.
    const sim::ZipfSampler dev_sampler(
        model.disks, std::max(0.0, model.deviceZipfTheta));
    constexpr std::uint64_t kExtents = 4096;
    const std::uint64_t extent_sectors = device_sectors / kExtents;
    const sim::ZipfSampler ext_sampler(
        kExtents, std::max(0.0, model.blockZipfTheta));

    // Burst-aware arrival process: a burstFraction of requests arrive
    // in tight back-to-back clusters; gap means are adjusted so the
    // overall mean inter-arrival stays at the calibrated value.
    const double target_mean =
        model.meanInterArrivalMs / params.intensityScale;
    const double intra_burst_ms = 0.1;
    const double f = std::min(0.95, model.burstFraction);
    const double gap_mean = f < 1e-9
        ? target_mean
        : std::max(0.01, (target_mean - f * intra_burst_ms) / (1.0 - f));

    std::vector<geom::Lba> seq_cursor(model.disks, 0);

    Trace trace;
    trace.reserve(params.requests);
    double clock_ms = 0.0;
    std::uint32_t burst_left = 0;

    // Long-timescale load phases (see WorkloadModel::phaseSeconds).
    const bool phased = model.phaseDepth > 0.0 && model.phaseSeconds > 0.0;
    bool phase_fast = true;
    double phase_end_ms = phased
        ? rng.exponential(model.phaseSeconds * 1000.0)
        : 0.0;

    for (std::uint64_t i = 0; i < params.requests; ++i) {
        double phase_factor = 1.0;
        if (phased) {
            while (clock_ms >= phase_end_ms) {
                phase_fast = !phase_fast;
                phase_end_ms +=
                    rng.exponential(model.phaseSeconds * 1000.0);
            }
            phase_factor = phase_fast ? 1.0 / (1.0 + model.phaseDepth)
                                      : 1.0 / (1.0 - model.phaseDepth);
        }
        if (burst_left > 0) {
            --burst_left;
            clock_ms += intra_burst_ms;
        } else {
            clock_ms += rng.exponential(gap_mean) * phase_factor;
            if (f > 0.0 &&
                rng.chance(f / static_cast<double>(model.burstLength)))
                burst_left = static_cast<std::uint32_t>(
                    1 + rng.uniformInt(static_cast<std::uint64_t>(
                            2 * model.burstLength - 1)));
        }

        IoRequest req;
        req.id = i;
        req.arrival = sim::msToTicks(clock_ms);
        req.device =
            static_cast<std::uint16_t>(dev_sampler.sample(rng));
        req.isRead = rng.chance(model.readFraction);
        req.sectors = static_cast<std::uint32_t>(rng.uniformInt(
            static_cast<std::int64_t>(model.minSectors),
            static_cast<std::int64_t>(model.maxSectors)));

        const geom::Lba limit = device_sectors - req.sectors;
        if (rng.chance(model.sequentialFraction) &&
            seq_cursor[req.device] <= limit &&
            seq_cursor[req.device] > 0) {
            req.lba = seq_cursor[req.device];
        } else {
            const std::uint64_t ext =
                scatter(ext_sampler.sample(rng), kExtents);
            const geom::Lba base = ext * extent_sectors;
            const std::uint64_t span =
                extent_sectors > req.sectors
                ? extent_sectors - req.sectors
                : 1;
            req.lba = std::min(limit, base + rng.uniformInt(span));
        }
        seq_cursor[req.device] = req.lba + req.sectors;
        trace.push_back(req);
    }

    // The burst and phase processes interact with the gap process in
    // ways that bias the realized mean inter-arrival away from the
    // calibrated target; rescale timestamps so the trace's overall
    // mean matches the model exactly (structure — bursts, phases,
    // ordering — is preserved, only the global clock stretches).
    if (trace.size() > 1) {
        const double span_ms =
            sim::ticksToMs(trace.back().arrival -
                           trace.front().arrival);
        const double want_ms =
            target_mean * static_cast<double>(trace.size() - 1);
        if (span_ms > 0.0) {
            const double k = want_ms / span_ms;
            const sim::Tick t0 = trace.front().arrival;
            for (auto &req : trace)
                req.arrival = t0 +
                    static_cast<sim::Tick>(
                        static_cast<double>(req.arrival - t0) * k);
        }
    }
    return trace;
}

} // namespace workload
} // namespace idp
