/**
 * @file
 * Benchmark program:
 *
 *   idp_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--span-out <path>]
 *
 * Prints a header of "# key: value" lines (the run's full resolved
 * configuration and its result digest), then one JSON object as the
 * last line: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones. Exits 2 on bad arguments or a refused environment,
 * 1 when the correctness gate fails.
 */

#include <malloc.h>
#include <sys/personality.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hh"
#include "telemetry/telemetry.hh"
#include "verify/verify.hh"
#include "workloads.hh"

namespace {

using namespace idp::perfbench;

/** At most this many sweep threads, side-by-side copies and traced-pass
 *  PDES workers. */
constexpr unsigned kMaxThreads = 4;

/**
 * Blocks of at least this many bytes are mmapped and unmapped on free.
 * glibc otherwise raises the threshold after the first such free, and
 * how many large blocks then stay resident in the sweep threads' arenas
 * depends on thread timing: peak_rss_mb varied by ~15% on one seed.
 */
constexpr int kMmapThreshold = 256 * 1024;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "idp_perfbench: %s\nusage: idp_perfbench --workload "
                 "<paper_sweep|mirror_rebuild|serve_diurnal> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-out <path>]\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    try {
        out = std::stoull(s);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    const std::vector<std::string> refused =
        refusedVariables(processEnvironment());
    if (!refused.empty()) {
        for (const std::string &name : refused)
            std::fprintf(stderr,
                         "idp_perfbench: refusing to run: %s is set and "
                         "would change what is measured; unset it\n",
                         name.c_str());
        return 2;
    }

    RunOptions opts;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opts.workload = val;
            have_workload = true;
        } else if (arg == "--seed" && parseUnsigned(val, n)) {
            opts.seed = n;
            have_seed = true;
        } else if (arg == "--seconds" && parseUnsigned(val, n) && n >= 1 &&
                   n <= 600) {
            opts.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            opts.trace = val == "1";
            have_trace = true;
        } else if (arg == "--span-out") {
            opts.spanOut = val;
        } else {
            return usage(("bad argument " + arg + " " + val).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) ==
        names.end())
        return usage(("unknown workload " + opts.workload).c_str());

    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    opts.threads = std::min(cpus, kMaxThreads);
    opts.workers = opts.threads;

    Outcome out;
    try {
        out = runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "idp_perfbench: %s\n", e.what());
        return 1;
    }

    std::cout << "# idp_perfbench\n"
              << "# workload: " << opts.workload << '\n'
              << "# seed: " << opts.seed << '\n'
              << "# seconds: " << opts.seconds << '\n'
              << "# trace: " << (opts.trace ? 1 : 0) << '\n'
              << "# cpu_count: " << cpus << '\n'
              << "# compiler: g++ " << __VERSION__ << '\n'
              << "# build_type: " << PERFBENCH_BUILD_TYPE << '\n'
              << "# malloc_mmap_threshold: " << kMmapThreshold << '\n'
              << "# address_randomization: "
              << (personality(0xffffffff) & ADDR_NO_RANDOMIZE ? "off" : "on")
              << '\n'
              << "# verify_compiled_in: "
              << (idp::verify::kCompiledIn ? "true" : "false") << '\n'
              << "# telemetry_compiled_in: "
              << (idp::telemetry::kCompiledIn ? "true" : "false") << '\n'
              << "# threads: " << opts.threads << '\n'
              << "# workers: " << opts.workers << '\n';
    for (const auto &[key, value] : out.config)
        std::cout << "# " << key << ": " << value << '\n';
    std::cout << "# digest: " << hex(out.digest) << '\n';
    for (const std::string &e : out.errors)
        std::cout << "# error: " << e << '\n';

    const std::vector<Metric> &metrics =
        opts.trace ? out.perLayer : out.endToEnd;
    std::string json = "{\"correct\": ";
    json += out.errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return out.errors.empty() ? 0 : 1;
}
