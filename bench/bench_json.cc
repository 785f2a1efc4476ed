#include "bench_json.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

namespace {

/**
 * Relaxed is fine: benches read the counter from the same thread
 * that allocates, and cross-thread churn only needs to be counted,
 * not ordered.
 */
std::atomic<std::uint64_t> g_alloc_count{0};

void *
countedAlloc(std::size_t size)
{
    ++g_alloc_count;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Interpose the global allocator so benches can assert zero
// steady-state allocations. Linked into bench executables only.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace idp {
namespace benchjson {

BenchReport::BenchReport(std::string bench_name)
    : bench_(std::move(bench_name))
{
    // Every report leads with the runner's core count so downstream
    // gates on parallel-scaling metrics (pdes_speedup_4w) can skip
    // with a logged reason on small runners instead of failing — or
    // worse, silently passing on numbers a 2-core machine cannot
    // produce.
    metrics_.push_back(
        {"cpu_count",
         static_cast<double>(std::thread::hardware_concurrency()),
         "cores"});
}

void
BenchReport::add(const std::string &name, double value,
                 const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

std::string
BenchReport::write(const std::string &dir) const
{
    const std::string path = dir + "/BENCH_" + bench_ + ".json";
    // A report that silently fails to land would leave the gates
    // checking whatever file was there before, so stop the bench.
    auto cannotWrite = [&path] {
        std::fprintf(stderr, "bench_json: cannot write %s\n",
                     path.c_str());
        std::exit(EXIT_FAILURE);
    };
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        cannotWrite();
    std::fprintf(f, "{\n  \"schema\": \"idp-bench-v1\",\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench_.c_str());
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     m.name.c_str(), m.value, m.unit.c_str(),
                     i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::ferror(f) != 0 || std::fclose(f) != 0)
        cannotWrite();
    std::fprintf(stderr, "bench_json: wrote %s\n", path.c_str());
    return path;
}

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

} // namespace benchjson
} // namespace idp
