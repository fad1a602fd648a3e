#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "util/mutex.h"

namespace roc {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
Mutex g_mutex;
// Empty function object = the default stderr sink.
LogSink g_sink ROC_GUARDED_BY(g_mutex);
std::atomic<void (*)(LogLevel, const std::string&)> g_mirror{nullptr};

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

LogSink set_log_sink(LogSink sink) {
  MutexLock lock(g_mutex);
  std::swap(g_sink, sink);
  return sink;
}

namespace detail {
void set_log_mirror(void (*mirror)(LogLevel, const std::string&)) {
  g_mirror.store(mirror, std::memory_order_release);
}
}  // namespace detail

void log_line(LogLevel level, const std::string& msg) {
  if (!detail::log_enabled(level)) return;
  {
    MutexLock lock(g_mutex);
    if (g_sink) {
      g_sink(level, msg);
    } else {
      // Serialized stderr emission IS the logger's contract; g_mutex
      // exists to keep lines whole and no other lock nests inside it.
      // ROCANALYZE-ALLOW(r6-blocking-under-lock): why: see above.
      std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
    }
  }
  // The mirror runs outside the lock: it may take its own locks (the
  // telemetry ring buffer) and must not hold up other loggers.
  if (auto* mirror = g_mirror.load(std::memory_order_acquire)) {
    mirror(level, msg);
  }
}

}  // namespace roc
