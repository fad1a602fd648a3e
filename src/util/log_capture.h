#pragma once
/// \file log_capture.h
/// \brief Test helper: capture log output for the lifetime of a scope.
///
///   roc::ScopedLogCapture capture;           // or capture(LogLevel::kDebug)
///   thing_that_warns();
///   EXPECT_TRUE(capture.contains("buffer full"));
///
/// Installs itself as the log sink (so nothing reaches stderr) and
/// restores the previous sink — and the previous log level — on
/// destruction.  Lines are stored with their level; accessors lock, so
/// capturing across threads is safe.

#include <string>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/mutex.h"

namespace roc {

class ScopedLogCapture {
 public:
  struct Line {
    LogLevel level;
    std::string msg;
  };

  /// Captures lines at >= `min_level`; the global level is lowered to
  /// `min_level` for the capture's lifetime so filtered lines show up too.
  explicit ScopedLogCapture(LogLevel min_level = LogLevel::kDebug)
      : prev_level_(log_level()) {
    set_log_level(min_level);
    prev_sink_ = set_log_sink([this](LogLevel level, const std::string& msg) {
      MutexLock lock(mu_);
      lines_.push_back({level, msg});
    });
  }

  ~ScopedLogCapture() {
    set_log_sink(std::move(prev_sink_));
    set_log_level(prev_level_);
  }

  ScopedLogCapture(const ScopedLogCapture&) = delete;
  ScopedLogCapture& operator=(const ScopedLogCapture&) = delete;

  [[nodiscard]] std::vector<Line> lines() const {
    MutexLock lock(mu_);
    return lines_;
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mu_);
    return lines_.size();
  }

  /// True if any captured line contains `needle`.
  [[nodiscard]] bool contains(const std::string& needle) const {
    MutexLock lock(mu_);
    for (const Line& line : lines_) {
      if (line.msg.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  void clear() {
    MutexLock lock(mu_);
    lines_.clear();
  }

 private:
  mutable Mutex mu_;
  std::vector<Line> lines_ ROC_GUARDED_BY(mu_);
  LogLevel prev_level_;
  LogSink prev_sink_;
};

}  // namespace roc
