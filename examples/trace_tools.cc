/**
 * @file
 * Example: trace generation and inspection CLI.
 *
 * Subcommands:
 *   gen <financial|websearch|tpcc|tpch|synthetic> <requests> <file>
 *       Synthesize a workload and write it in the idp-trace format.
 *   info <file>
 *       Print summary statistics of a trace file.
 *   replay <file> [disks] [actuators]
 *       Replay a trace against a RAID-0 array of intra-disk parallel
 *       drives and print the results.
 *   inspect <file> [requests]
 *       Traced replay: print a span timeline for the first few
 *       requests plus the measured time-attribution table.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "config/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "stats/table.hh"
#include "telemetry/telemetry.hh"
#include "workload/commercial.hh"
#include "workload/locality.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace {

using namespace idp;

int
usage()
{
    std::cerr << "usage:\n"
              << "  trace_tools gen <financial|websearch|tpcc|tpch|"
                 "synthetic> <requests> <file>\n"
              << "  trace_tools info <file>\n"
              << "  trace_tools replay <file> [disks] [actuators]\n"
              << "  trace_tools inspect <file> [requests]\n";
    return 2;
}

void
printInfo(const workload::Trace &trace)
{
    const auto s = workload::summarize(trace);
    stats::TextTable table("Trace summary");
    table.setHeader({"Metric", "Value"});
    table.addRow({"requests", std::to_string(s.requests)});
    table.addRow({"devices", std::to_string(s.devices)});
    table.addRow({"reads", stats::fmtPct(s.readFraction, 1)});
    table.addRow({"duration (s)", stats::fmt(s.durationSeconds, 2)});
    table.addRow(
        {"mean inter-arrival (ms)", stats::fmt(s.meanInterArrivalMs, 3)});
    table.addRow({"mean size (KB)", stats::fmt(s.meanSizeKB, 1)});
    table.addRow({"total data (GB)",
                  stats::fmt(static_cast<double>(s.totalBytes) / 1e9, 2)});
    table.print(std::cout);

    const workload::LocalityReport loc =
        workload::analyzeLocality(trace);
    stats::TextTable locality("Locality / burstiness");
    locality.setHeader({"Metric", "Value"});
    locality.addRow({"sequential fraction",
                     stats::fmtPct(loc.sequentialFraction, 1)});
    locality.addRow(
        {"mean run length", stats::fmt(loc.meanRunLength, 2)});
    locality.addRow({"median jump (sectors)",
                     stats::fmt(loc.medianJumpSectors, 0)});
    locality.addRow({"hottest device share",
                     stats::fmtPct(loc.hottestDeviceShare, 1)});
    locality.addRow({"inter-arrival CV^2",
                     stats::fmt(loc.interArrivalCv2, 2)});
    locality.addRow(
        {"footprint ratio", stats::fmt(loc.footprintRatio, 3)});
    locality.print(std::cout);
}

/**
 * Flatten per-device addresses onto one logical space by treating
 * (device, lba) as a concatenated offset.
 */
workload::Trace
flattenDevices(const workload::Trace &trace)
{
    workload::Trace flat = trace;
    std::uint64_t max_lba = 0;
    for (const auto &r : trace)
        max_lba = std::max(
            max_lba, static_cast<std::uint64_t>(r.lba) + r.sectors);
    for (auto &r : flat) {
        r.lba += static_cast<geom::Lba>(r.device) * max_lba;
        r.device = 0;
    }
    return flat;
}

int
inspectTrace(const config::Env &env, const std::string &path,
             std::uint64_t show)
{
    if (!telemetry::kCompiledIn) {
        std::cerr << "trace_tools: built with IDP_TELEMETRY=OFF;"
                     " inspect unavailable\n";
        return 1;
    }
    const workload::Trace raw = workload::readTraceFile(path);
    const workload::Trace flat = flattenDevices(raw);

    core::SystemConfig config = core::makeRaid0System(
        "inspect", disk::barracudaEs750(), 1);
    env.apply(config);
    config.tracing = telemetry::TraceOptions{};
    config.tracing.enabled = true;
    const core::RunResult result = core::runTrace(flat, config);

    // Per-request timeline for the first few retained request ids.
    // Spans are ring-ordered (record order); group them by id.
    std::vector<std::uint64_t> order;
    for (const auto &span : result.trace->spans) {
        if (span.id == 0)
            continue; // destage / internal traffic
        if (std::find(order.begin(), order.end(), span.id) ==
            order.end())
            order.push_back(span.id);
        if (order.size() >= show)
            break;
    }
    for (const std::uint64_t id : order) {
        stats::TextTable table("request " + std::to_string(id));
        table.setHeader(
            {"Phase", "Begin(ms)", "End(ms)", "Dur(ms)", "Disk",
             "Arm"});
        for (const auto &span : result.trace->spans) {
            if (span.id != id)
                continue;
            table.addRow({
                telemetry::spanKindName(span.kind),
                stats::fmt(sim::ticksToMs(span.begin), 3),
                stats::fmt(sim::ticksToMs(span.end), 3),
                stats::fmt(sim::ticksToMs(span.ticks()), 3),
                std::to_string(span.dev),
                std::to_string(span.arm),
            });
        }
        table.print(std::cout);
        std::cout << '\n';
    }
    if (result.trace->dropped > 0)
        std::cout << "(" << result.trace->dropped
                  << " spans dropped; raise IDP_TRACE_BUF)\n";

    core::printAttribution(std::cout, "Time attribution", {result});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const config::Env env = config::resolveEnv();
    sim::setLogThreshold(env.logLevel);
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "gen") {
        if (argc < 5)
            return usage();
        const std::string kind = argv[2];
        const std::uint64_t n =
            static_cast<std::uint64_t>(std::atoll(argv[3]));
        const std::string path = argv[4];
        workload::Trace trace;
        if (kind == "synthetic") {
            workload::SyntheticParams p;
            p.requests = n;
            trace = workload::generateSynthetic(p);
        } else {
            workload::CommercialParams p;
            if (kind == "financial")
                p.kind = workload::Commercial::Financial;
            else if (kind == "websearch")
                p.kind = workload::Commercial::Websearch;
            else if (kind == "tpcc")
                p.kind = workload::Commercial::TpcC;
            else if (kind == "tpch")
                p.kind = workload::Commercial::TpcH;
            else
                return usage();
            p.requests = n;
            trace = workload::generateCommercial(p);
        }
        workload::writeTraceFile(path, trace);
        std::cout << "wrote " << trace.size() << " requests to "
                  << path << "\n";
        printInfo(trace);
        return 0;
    }

    if (cmd == "info") {
        if (argc < 3)
            return usage();
        printInfo(workload::readTraceFile(argv[2]));
        return 0;
    }

    if (cmd == "replay") {
        if (argc < 3)
            return usage();
        const auto trace = workload::readTraceFile(argv[2]);
        const std::uint32_t disks = argc > 3
            ? static_cast<std::uint32_t>(std::atoi(argv[3]))
            : 1;
        const std::uint32_t actuators = argc > 4
            ? static_cast<std::uint32_t>(std::atoi(argv[4]))
            : 1;
        idp::disk::DriveSpec drive = idp::disk::barracudaEs750();
        if (actuators > 1)
            drive = idp::disk::makeIntraDiskParallel(drive, actuators);
        idp::core::SystemConfig config = idp::core::makeRaid0System(
            std::to_string(disks) + "x SA(" +
                std::to_string(actuators) + ")",
            drive, disks);
        env.apply(config);

        const workload::Trace flat = flattenDevices(trace);
        const auto result = idp::core::runTrace(flat, config);
        idp::core::printSummary(std::cout, "Replay results", {result});
        idp::core::printResponseCdf(std::cout, "Response-time CDF",
                                    {result});
        return 0;
    }

    if (cmd == "inspect") {
        if (argc < 3)
            return usage();
        const std::uint64_t show = argc > 3
            ? static_cast<std::uint64_t>(std::atoll(argv[3]))
            : 5;
        return inspectTrace(env, argv[2],
                            std::max<std::uint64_t>(show, 1));
    }

    return usage();
}
