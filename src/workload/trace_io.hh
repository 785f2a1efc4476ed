/**
 * @file
 * Trace serialization.
 *
 * A simple line-oriented text format, one request per line. The
 * current format:
 *
 *   # idp-trace v2
 *   <id> <arrival_ticks> <device> <lba> <sectors> <R|W>[B]
 *
 * Arrivals are stored in integer simulator ticks (nanoseconds), so a
 * write/read round trip reproduces the Trace *exactly* — ids,
 * sub-microsecond arrival times, and the background flag (the
 * trailing B) included. The v1 format
 *
 *   # idp-trace v1
 *   <arrival_us> <device> <lba> <sectors> <R|W>
 *
 * truncated arrivals to whole microseconds and dropped request ids
 * (they were reassigned sequentially on load); readTrace still
 * accepts it, with those historical semantics, so existing trace
 * files keep working. Headerless input is treated as v1, matching
 * the SPC/UMass-style traces the paper's workloads come from.
 *
 * Every numeric column is an unsigned decimal (digits only, no sign)
 * within its field's range; device ids are 0-65535. Requests must
 * have at least one sector and non-decreasing arrivals. Any other
 * line is fatal, and the error names its line number.
 */

#ifndef IDP_WORKLOAD_TRACE_IO_HH
#define IDP_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/request.hh"

namespace idp {
namespace workload {

/** Serialize @p trace to @p os (v2: exact, id-preserving). */
void writeTrace(std::ostream &os, const Trace &trace);

/** Serialize to a file. Fatal on I/O errors. */
void writeTraceFile(const std::string &path, const Trace &trace);

/**
 * Parse a trace from @p is. Fatal on malformed input, with the line
 * number. v2 traces round-trip exactly; v1 (or headerless) traces get
 * microsecond arrivals and sequentially reassigned ids, as they
 * always did.
 */
Trace readTrace(std::istream &is);

/** Parse from a file. Fatal on I/O errors. */
Trace readTraceFile(const std::string &path);

} // namespace workload
} // namespace idp

#endif // IDP_WORKLOAD_TRACE_IO_HH
