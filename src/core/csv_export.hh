/**
 * @file
 * CSV export of run results, for downstream plotting.
 *
 * Bench binaries print paper-style text tables; for regenerating the
 * figures graphically, these helpers dump the same series as CSV —
 * one row per CDF/PDF bucket with one column per system, plus a flat
 * summary file. The benches export into IDP_CSV_DIR when it is set.
 */

#ifndef IDP_CORE_CSV_EXPORT_HH
#define IDP_CORE_CSV_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace idp {
namespace core {

/** Write response-time CDF rows (edge, one column per system). */
void writeCdfCsv(std::ostream &os,
                 const std::vector<RunResult> &results);
void writeCdfCsv(const std::string &path,
                 const std::vector<RunResult> &results);

/** Write rotational-latency PDF rows. */
void writeRotPdfCsv(std::ostream &os,
                    const std::vector<RunResult> &results);
void writeRotPdfCsv(const std::string &path,
                    const std::vector<RunResult> &results);

/** Write one summary row per system (perf + power breakdown). */
void writeSummaryCsv(std::ostream &os,
                     const std::vector<RunResult> &results);
void writeSummaryCsv(const std::string &path,
                     const std::vector<RunResult> &results);

/**
 * Write the telemetry-registry snapshots as long-form rows
 * (system,metric,value). Results without metrics contribute nothing.
 */
void writeMetricsCsv(std::ostream &os,
                     const std::vector<RunResult> &results);
void writeMetricsCsv(const std::string &path,
                     const std::vector<RunResult> &results);

/**
 * Bench helper: unless @p dir is empty, write all three files as
 * <dir>/<stem>_{cdf,rotpdf,summary}.csv (plus <stem>_metrics.csv
 * for traced results) and return true.
 */
bool maybeExportCsv(const std::string &dir, const std::string &stem,
                    const std::vector<RunResult> &results);

/** Bench helper: unless @p dir is empty or no result carries metrics
 *  (the runs were untraced), write <dir>/<stem>_metrics.csv. */
void maybeExportMetricsCsv(const std::string &dir, const std::string &stem,
                           const std::vector<RunResult> &results);

} // namespace core
} // namespace idp

#endif // IDP_CORE_CSV_EXPORT_HH
