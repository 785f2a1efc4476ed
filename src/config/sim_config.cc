#include "config/sim_config.hh"

#include "sim/logging.hh"
#include "workload/commercial.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace idp {
namespace config {

namespace {

workload::Commercial
commercialFromName(const std::string &name)
{
    if (name == "financial")
        return workload::Commercial::Financial;
    if (name == "websearch")
        return workload::Commercial::Websearch;
    if (name == "tpcc")
        return workload::Commercial::TpcC;
    if (name == "tpch")
        return workload::Commercial::TpcH;
    sim::fatal("config: unknown commercial workload: " + name);
}

} // namespace

disk::DriveSpec
driveFromIni(const IniFile &ini, disk::DriveSpec base)
{
    using D = ValueDomain;
    const std::string s = "drive";
    // Each key overrides its field when present.
    auto count = [&](const char *key, std::uint32_t &field,
                     D domain = D::Positive) {
        field = ini.getCount(s, key, domain, field);
    };
    auto real = [&](const char *key, double &field,
                    D domain = D::NonNegative) {
        field = ini.getReal(s, key, domain, field);
    };
    auto flag = [&](const char *key, bool &field) {
        field = ini.getBool(s, key, field);
    };
    count("rpm", base.rpm);
    if (ini.has(s, "capacity_gb"))
        base.geometry.capacityBytes = static_cast<std::uint64_t>(
            ini.getReal(s, "capacity_gb", D::Positive, 0.0) * 1e9);
    count("platters", base.geometry.platters);
    if (ini.has(s, "cache_mb"))
        base.cache.cacheBytes = static_cast<std::uint64_t>(
            ini.getReal(s, "cache_mb", D::NonNegative, 0.0) * 1024 *
            1024);
    count("actuators", base.dash.armAssemblies);
    count("heads_per_arm", base.dash.headsPerArm);
    count("surfaces", base.dash.surfaces);
    if (ini.has(s, "policy"))
        base.sched.policy =
            sched::policyFromString(ini.get(s, "policy"));
    count("window", base.schedWindow);
    real("seek_single_ms", base.seek.singleCylinderMs);
    real("seek_avg_ms", base.seek.averageMs);
    real("seek_full_ms", base.seek.fullStrokeMs);
    real("platter_diameter_in", base.power.platterDiameterIn,
         D::Positive);
    real("seek_scale", base.seekScale);
    real("rot_scale", base.rotScale);
    flag("write_back", base.cache.writeBack);
    count("max_concurrent_seeks", base.maxConcurrentSeeks);
    count("max_concurrent_transfers", base.maxConcurrentTransfers);
    flag("zero_latency", base.zeroLatencyAccess);
    flag("coalesce", base.coalesce);
    real("media_retry_rate", base.mediaRetryRate, D::Fraction);
    real("spin_down_after_ms", base.spinDownAfterMs);
    real("spin_up_ms", base.spinUpMs);
    count("max_retries", base.maxRetries, D::NonNegative);
    // seek_curve = d1:ms1,d2:ms2,... (measured profile)
    if (ini.has(s, "seek_curve")) {
        base.seek.curvePoints.clear();
        std::string raw = ini.get(s, "seek_curve");
        std::size_t pos = 0;
        while (pos < raw.size()) {
            std::size_t comma = raw.find(',', pos);
            if (comma == std::string::npos)
                comma = raw.size();
            const std::string token = raw.substr(pos, comma - pos);
            const std::size_t colon = token.find(':');
            std::optional<double> dist;
            std::optional<double> ms;
            if (colon != std::string::npos) {
                dist = parseValue(ValueKind::Count, D::Positive,
                                  token.substr(0, colon));
                ms = parseValue(ValueKind::Real, D::NonNegative,
                                token.substr(colon + 1));
            }
            if (!dist || !ms)
                sim::fatal(
                    "config [drive] seek_curve: expected dist:ms "
                    "pairs, dist " +
                    acceptedForm(ValueKind::Count, D::Positive) +
                    " and ms " +
                    acceptedForm(ValueKind::Real, D::NonNegative) +
                    ", got \"" + token + "\"");
            base.seek.curvePoints.emplace_back(
                static_cast<std::uint32_t>(*dist), *ms);
            pos = comma + 1;
        }
    }
    base.normalize();
    return base;
}

workload::Trace
traceFromIni(const IniFile &ini)
{
    using D = ValueDomain;
    const std::string s = "workload";
    const std::string kind = ini.get(s, "kind", "synthetic");
    const std::uint64_t requests =
        ini.getCount(s, "requests", D::Positive, 100000);

    if (kind == "synthetic") {
        workload::SyntheticParams p;
        p.requests = requests;
        p.meanInterArrivalMs =
            ini.getReal(s, "inter_arrival_ms", D::Positive, 4.0);
        p.readFraction =
            ini.getReal(s, "read_fraction", D::Fraction, 0.6);
        p.sequentialFraction =
            ini.getReal(s, "sequential_fraction", D::Fraction, 0.2);
        p.minSectors = static_cast<std::uint32_t>(
            ini.getReal(s, "min_kb", D::Positive, 4.0) * 2.0);
        p.maxSectors = static_cast<std::uint32_t>(
            ini.getReal(s, "max_kb", D::Positive, 32.0) * 2.0);
        if (ini.has(s, "address_gb"))
            p.addressSpaceSectors = static_cast<std::uint64_t>(
                ini.getReal(s, "address_gb", D::Positive, 700.0) * 1e9 /
                512.0);
        p.seed = static_cast<std::uint64_t>(
            ini.getInt(s, "seed", 0x5EED5EED));
        return workload::generateSynthetic(p);
    }
    if (kind == "file") {
        return workload::readTraceFile(ini.require(s, "trace_file"));
    }
    workload::CommercialParams p;
    p.kind = commercialFromName(kind);
    p.requests = requests;
    p.intensityScale = ini.getReal(s, "intensity", D::Positive, 1.0);
    p.seed =
        static_cast<std::uint64_t>(ini.getInt(s, "seed", 0));
    return workload::generateCommercial(p);
}

Experiment
experimentFromIni(const IniFile &ini)
{
    Experiment exp;
    exp.name = ini.get("run", "name", "run");
    exp.trace = traceFromIni(ini);

    const std::string layout =
        ini.get("system", "layout", "single");
    const std::string kind = ini.get("workload", "kind", "synthetic");
    const std::uint32_t disks =
        ini.getCount("system", "disks", ValueDomain::Positive, 1);

    if (layout == "md" || layout == "hcsd") {
        sim::simAssert(kind != "synthetic" && kind != "file",
                       "config: md/hcsd layouts need a commercial "
                       "workload kind");
        const workload::Commercial c = commercialFromName(kind);
        exp.system = layout == "md" ? core::makeMdSystem(c)
                                    : core::makeHcsdSystem(c);
        // Apply [drive] overrides on top of the builder's defaults.
        exp.system.array.drive =
            driveFromIni(ini, exp.system.array.drive);
    } else {
        const disk::DriveSpec drive =
            driveFromIni(ini, disk::barracudaEs750());
        if (layout == "single") {
            exp.system = core::makeRaid0System(exp.name, drive, 1);
        } else if (layout == "raid0") {
            exp.system = core::makeRaid0System(exp.name, drive, disks);
        } else if (layout == "raid1" || layout == "raid5") {
            exp.system.name = exp.name;
            exp.system.array.layout = layout == "raid1"
                ? array::Layout::Raid1
                : array::Layout::Raid5;
            exp.system.array.disks = disks;
            exp.system.array.drive = drive;
        } else {
            sim::fatal("config: unknown [system] layout: " + layout);
        }
        if (ini.has("system", "stripe_kb"))
            exp.system.array.stripeSectors =
                static_cast<std::uint32_t>(
                    ini.getReal("system", "stripe_kb",
                                ValueDomain::Positive, 64.0) *
                    2.0);
    }

    exp.system.array.useBus =
        ini.getBool("system", "use_bus", false);
    exp.system.array.bus.bandwidthMBps = ini.getReal(
        "system", "bus_mbps", ValueDomain::Positive, 300.0);
    exp.system.array.bus.channels = ini.getCount(
        "system", "bus_channels", ValueDomain::Positive, 1);
    return exp;
}

} // namespace config
} // namespace idp
