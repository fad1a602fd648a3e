#pragma once
/// \file thread.h
/// \brief roc::Thread — the repo's only sanctioned way to start a thread.
///
/// A thin wrapper over std::thread (this file and src/sim/platform.* are
/// the allowlisted raw users; lint rule `raw-thread` bans std::thread
/// everywhere else).  Beyond funnelling thread creation through one
/// place, the wrapper gives the concurrency checker (src/check) its
/// thread-lifetime happens-before edges for free:
///
///   * spawn:  creator's vector clock is published under a token before
///     the thread starts; the new thread joins it before running `body`.
///   * join:   the thread publishes its clock at body exit; join()
///     acquires it after the underlying join returns.
///
/// Without a checker session installed the overhead is two relaxed
/// atomic counter bumps per thread.

#include <functional>
#include <thread>  // LINT-ALLOW(raw-thread): wrapper implementation
#include <utility>

#include "util/check_hooks.h"

namespace roc {

class Thread {
 public:
  Thread() = default;

  /// Starts a thread running `body`.  Exceptions escaping `body`
  /// propagate exactly as with std::thread (std::terminate); callers that
  /// need capture wrap the body themselves.
  explicit Thread(std::function<void()> body);

  Thread(Thread&&) noexcept = default;
  Thread& operator=(Thread&& other) noexcept;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// Joins if still joinable (std::thread would terminate; abandoned
  /// simulation workers make silent cleanup the right default here).
  ~Thread();

  [[nodiscard]] bool joinable() const { return t_.joinable(); }

  /// Blocks until the thread finishes; establishes body-exit -> caller HB.
  void join();

  /// Detaches the underlying thread.  Named `abandon` (not `detach`) on
  /// purpose: the only legitimate use is the simulator's abnormal-end
  /// path, where a cancelled process thread is left parked forever and
  /// its resources are intentionally leaked.  No HB edge is recorded.
  void abandon();

 private:
  std::thread t_;  // LINT-ALLOW(raw-thread): wrapper implementation
  uint64_t finish_token_ = 0;
};

}  // namespace roc
