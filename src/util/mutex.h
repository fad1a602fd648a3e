#pragma once
/// \file mutex.h
/// \brief Capability-annotated mutex / condition-variable wrappers.
///
/// All mutual exclusion in rocpio goes through these types instead of raw
/// `std::mutex` / `std::condition_variable` (enforced by `tools/lint.py`,
/// rule `raw-sync`).  Each lock property has one static and one dynamic
/// catcher (DESIGN.md §11):
///
///  * Guard discipline.  `roc::Mutex` is a Clang Thread Safety Analysis
///    *capability*: fields declared `ROC_GUARDED_BY(mutex_)` are verified
///    at compile time to only be touched with the mutex held
///    (`clang++ -Wthread-safety`, the `thread-safety` CI job); rocanalyze
///    `r2-unannotated` flags locked writes to fields that lack the
///    annotation.  Recursive acquisition is a `-Wthread-safety` error (its
///    only catcher: under TSan it self-deadlocks without a report).
///  * Lock order.  rocanalyze R5 checks the whole-program acquisition
///    graph statically, naming each mutex by its `Class::member`
///    declaration; TSan's lock-order-inversion detector catches inversions
///    at run time.
///
/// The wrappers also carry the concurrency checker's hooks
/// (util/check_hooks.h), which give the race detector its release->acquire
/// happens-before edges.  With no checker session installed each hook is
/// one relaxed atomic load and a branch in front of the `std::mutex` call.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/check_hooks.h"
#include "util/thread_annotations.h"

namespace roc {

/// A plain (non-recursive) mutex, annotated as a static-analysis
/// capability.
class ROC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  ~Mutex() { ROC_CHECKHOOK_(lock_destroy(this)); }

  void lock() ROC_ACQUIRE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECK_PREEMPT("mutex.lock");
    m_.lock();
    ROC_CHECKHOOK_(lock_acquire(this));
  }

  void unlock() ROC_RELEASE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECKHOOK_(lock_release(this));
    m_.unlock();
  }

  [[nodiscard]] bool try_lock() ROC_TRY_ACQUIRE(true)
      ROC_NO_THREAD_SAFETY_ANALYSIS {
    const bool ok = m_.try_lock();
    if (ok) ROC_CHECKHOOK_(lock_acquire(this));
    return ok;
  }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock for a roc::Mutex (the only way most code should lock one).
class ROC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) ROC_ACQUIRE(m) : m_(m) { m.lock(); }
  ~MutexLock() ROC_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable paired with roc::Mutex.  Waits follow the predicate
/// loop idiom; the mutex must be held (statically checked) and is held
/// again when wait() returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& m) ROC_REQUIRES(m) ROC_NO_THREAD_SAFETY_ANALYSIS {
    // The caller holds m per the contract; adopt it for the wait and hand
    // it back afterwards.
    ROC_CHECKHOOK_(wait_begin(&m));
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // Caller still owns the lock after wait() returns.
    ROC_CHECKHOOK_(wait_end(&m));
  }

  /// Waits until `pred()` holds (spurious-wakeup safe).
  template <typename Pred>
  void wait(Mutex& m, Pred pred) ROC_REQUIRES(m) {
    while (!pred()) wait(m);
  }

  /// Timed wait: blocks until notified or `seconds` of real time elapse;
  /// returns false on timeout (spurious wakeups return true, so callers
  /// still loop on their predicate).  Real-clock cadence only — the
  /// watchdog poller's tick — never a correctness wait: the simulator's
  /// virtual clock does not drive it.
  bool wait_for(Mutex& m, double seconds) ROC_REQUIRES(m)
      ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECKHOOK_(wait_begin(&m));
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lk, std::chrono::duration<double>(seconds));
    lk.release();  // Caller still owns the lock after wait_for() returns.
    ROC_CHECKHOOK_(wait_end(&m));
    return status == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace roc
