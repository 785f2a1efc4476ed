/**
 * @file
 * Machine-readable benchmark reports.
 *
 * Benches append named metrics to a BenchReport and write it as a
 * small JSON document ("idp-bench-v1" schema):
 *
 *   {
 *     "schema": "idp-bench-v1",
 *     "bench": "kernel",
 *     "metrics": [
 *       {"name": "drive_events_per_sec", "value": 1.2e6,
 *        "unit": "events/s"},
 *       ...
 *     ]
 *   }
 *
 * tools/bench_check.py checks each report against the gates its
 * bench pins; CI's bench-smoke job runs it on fresh smoke-scale
 * reports and uploads them. Reports are not committed.
 *
 * Linking this library also interposes global operator new/delete
 * with a counting pass-through, so benches can measure allocations
 * per event in a steady-state window (allocCount()). Interposition is
 * confined to bench executables: the library is linked only here.
 */

#ifndef IDP_BENCH_BENCH_JSON_HH
#define IDP_BENCH_BENCH_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace idp {
namespace benchjson {

/** One named scalar result. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A bench's full result set; write() emits BENCH_<name>.json. */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name);

    void add(const std::string &name, double value,
             const std::string &unit);

    /**
     * Write BENCH_<bench>.json into @p dir (mains pass IDP_BENCH_OUT).
     * Exits non-zero, naming the path, when the report cannot be
     * written.
     * @return the path written.
     */
    std::string write(const std::string &dir) const;

  private:
    std::string bench_;
    std::vector<Metric> metrics_;
};

/**
 * Global allocation counter (operator new calls since process
 * start). Subtract two readings around a measured region to get the
 * region's allocation count.
 */
std::uint64_t allocCount();

} // namespace benchjson
} // namespace idp

#endif // IDP_BENCH_BENCH_JSON_HH
