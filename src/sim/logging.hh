/**
 * @file
 * Error reporting and leveled logging, in the spirit of gem5's
 * logging.hh.
 *
 * Unrecoverable paths:
 *   fatal()  — unrecoverable *user* error (bad configuration, impossible
 *              parameters); exits with status 1.
 *   panic()  — unrecoverable *simulator* bug (broken invariant); aborts so a
 *              core dump / debugger can be used.
 *
 * Leveled front end (shared by telemetry and the module code):
 *   setLogThreshold selects the threshold (default: warn; mains pass
 *   IDP_LOG). logError/logWarn/logInfo check the threshold at runtime;
 *   logDebug additionally compiles to nothing in Release builds
 *   (NDEBUG), so debug-grade formatting can sit on hot paths for
 *   free. warn() remains an alias for the Warn level.
 */

#ifndef IDP_SIM_LOGGING_HH
#define IDP_SIM_LOGGING_HH

#include <string>

namespace idp {
namespace sim {

/** Print "fatal: <msg>" to stderr and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Print "panic: <msg>" to stderr and abort(). */
[[noreturn]] void panic(const std::string &msg);

/** Severity, ordered so higher values are chattier. */
enum class LogLevel : int
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Parse "error"/"warn"/"info"/"debug" (fatal on anything else). */
LogLevel logLevelFromString(const std::string &name);

/** Active threshold (default warn). */
LogLevel logThreshold();

/** Set the threshold (mains pass IDP_LOG; tests). */
void setLogThreshold(LogLevel level);

/** True when messages at @p level are emitted. */
bool logEnabled(LogLevel level);

/** Print "<level>: <msg>" to stderr when @p level passes the gate. */
void logAt(LogLevel level, const std::string &msg);

inline void logError(const std::string &msg)
{
    logAt(LogLevel::Error, msg);
}

inline void logWarn(const std::string &msg)
{
    logAt(LogLevel::Warn, msg);
}

inline void logInfo(const std::string &msg)
{
    logAt(LogLevel::Info, msg);
}

#ifdef NDEBUG
/** Compiled out in Release: the argument expression still evaluates,
 *  so keep heavyweight formatting inside logEnabled() checks. */
inline void logDebug(const std::string &) {}
#else
inline void logDebug(const std::string &msg)
{
    logAt(LogLevel::Debug, msg);
}
#endif

/** Print "warn: <msg>" to stderr (gated at the Warn level). */
void warn(const std::string &msg);

/**
 * If !cond, panic with msg. Enabled in all build types. Call sites
 * pass string literals, which bind to this overload: the std::string
 * is only materialized on the failure path, so a passing assert on a
 * hot path costs one branch and never allocates.
 */
inline void
simAssert(bool cond, const char *msg)
{
    if (__builtin_expect(!cond, 0))
        panic(msg);
}

/** simAssert for messages composed at runtime. */
inline void
simAssert(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

} // namespace sim
} // namespace idp

#endif // IDP_SIM_LOGGING_HH
