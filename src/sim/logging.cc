#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace idp {
namespace sim {

namespace {

const char *
levelPrefix(LogLevel level)
{
    switch (level) {
      case LogLevel::Error:
        return "error";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
      case LogLevel::Debug:
        return "debug";
    }
    return "log";
}

std::atomic<int> g_threshold{static_cast<int>(LogLevel::Warn)};

} // namespace

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

LogLevel
logLevelFromString(const std::string &name)
{
    if (name == "error")
        return LogLevel::Error;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    fatal("log level \"" + name +
          "\" not one of error|warn|info|debug");
}

LogLevel
logThreshold()
{
    return static_cast<LogLevel>(
        g_threshold.load(std::memory_order_relaxed));
}

void
setLogThreshold(LogLevel level)
{
    g_threshold.store(static_cast<int>(level),
                      std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
        static_cast<int>(logThreshold());
}

void
logAt(LogLevel level, const std::string &msg)
{
    if (!logEnabled(level))
        return;
    std::fprintf(stderr, "%s: %s\n", levelPrefix(level), msg.c_str());
}

void
warn(const std::string &msg)
{
    logAt(LogLevel::Warn, msg);
}

} // namespace sim
} // namespace idp
