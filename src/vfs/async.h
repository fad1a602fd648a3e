#pragma once
/// \file async.h
/// \brief Queue-depth-aware asynchronous write path for the vfs layer.
///
/// Active buffering hides I/O cost behind a background thread, but that
/// thread still pays one synchronous syscall per block.  This layer lifts
/// the raw writes onto a submission/completion ring (see DESIGN.md
/// "Async I/O engine"):
///
///  * `ThreadPoolEngine` — a bounded ring drained by worker threads:
///    `submit()` enqueues a positional write and blocks only when
///    `queue_depth` operations are already in flight (backpressure);
///    `reap()` pops completions; `drain()` is the barrier.
///  * `AsyncFile` (internal) — a `vfs::File` that coalesces adjacent
///    writes into pool-recycled `kStagingBytes` staging blocks and submits
///    each full block as one operation.  Reads, seek-back overwrites and
///    `flush()` barrier on the ring first, so the visible file contents
///    are always byte-identical to the synchronous path (property-tested).
///  * `AsyncFileSystem` — decorator that routes write-mode opens of a
///    `PosixFileSystem` through an `AsyncFile`.  Every other base (Mem,
///    sim) gets its own `File` back untouched, which keeps roccheck replay
///    and the virtual-time benches bit-for-bit what they are without the
///    decorator.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "util/buffer.h"
#include "util/mutex.h"
#include "util/thread.h"
#include "util/thread_annotations.h"
#include "vfs/vfs.h"

namespace roc::vfs {

/// Staging-block capacity: adjacent writes are coalesced until a block
/// holds this much, then it is submitted as one operation.
inline constexpr size_t kStagingBytes = 256 * 1024;

/// Which engine services a ring.  The thread pool is the only one; the
/// enum stays so callers can spell the default explicitly.
enum class AsyncBackend {
  kAuto,  ///< thread-pool ring on a POSIX base, pass-through otherwise
};

struct AsyncOptions {
  AsyncBackend backend = AsyncBackend::kAuto;
  /// Bound on in-flight submissions per file; submit() blocks at the bound.
  unsigned queue_depth = 8;
};

/// Where an engine's writes land (a raw POSIX descriptor in production,
/// in-memory fakes in tests).  Implementations must make `pwrite` callable
/// from engine worker threads concurrently (raw descriptors are; a wrapped
/// `vfs::File` is not, which is why non-POSIX bases bypass the ring
/// altogether).
class IoTarget {
 public:
  virtual ~IoTarget() = default;

  /// Positional write of exactly `n` bytes; loops over partial writes.
  /// Returns `n` on success or a negative errno value.
  virtual int64_t pwrite(const void* data, size_t n,
                         uint64_t offset) noexcept = 0;
};

/// One submission-ring entry: a positional write of pinned bytes.
struct Sqe {
  uint64_t id = 0;
  IoTarget* target = nullptr;
  uint64_t offset = 0;             ///< file offset
  SharedBuffer pin;                ///< keeps `data` alive until completion
  const unsigned char* data = nullptr;  ///< points into `pin`
  size_t len = 0;
};

/// One completion-ring entry.
struct Cqe {
  uint64_t id = 0;
  int64_t result = 0;  ///< bytes written, or negative errno
};

/// Cached metric handles the engine updates (registered once per
/// AsyncFileSystem; see DESIGN.md "Telemetry" for the naming scheme).
struct AsyncMetrics {
  telemetry::Counter& submissions;
  telemetry::Counter& completions;
  telemetry::Counter& bytes_submitted;
  telemetry::Counter& stall_waits;      ///< submit() blocked on a full ring
  telemetry::Gauge& inflight;           ///< current in-flight submissions
  telemetry::Gauge& queue_depth_peak;   ///< high-water mark of `inflight`

  explicit AsyncMetrics(telemetry::MetricsRegistry& reg)
      : submissions(reg.counter("vfs.async.submissions")),
        completions(reg.counter("vfs.async.completions")),
        bytes_submitted(reg.counter("vfs.async.bytes_submitted")),
        stall_waits(reg.counter("vfs.async.stall_waits")),
        inflight(reg.gauge("vfs.async.inflight")),
        queue_depth_peak(reg.gauge("vfs.async.queue_depth_peak")) {}
};

/// A bounded submission/completion ring: a deque drained by worker
/// threads.  The bound (`queue_depth`) covers queued + executing
/// submissions, so submit() blocking on it is the ring's backpressure.
/// Thread-safe: race_test hammers one engine from many threads; in
/// production each AsyncFile owns its own ring, so `drain()` is a per-file
/// barrier.
class ThreadPoolEngine {
 public:
  ThreadPoolEngine(unsigned queue_depth, AsyncMetrics m);
  ~ThreadPoolEngine();
  ThreadPoolEngine(const ThreadPoolEngine&) = delete;
  ThreadPoolEngine& operator=(const ThreadPoolEngine&) = delete;

  /// Enqueues one write.  Blocks while `queue_depth` operations are
  /// already in flight — this is the backpressure that stops a fast
  /// producer from buffering unbounded bytes.
  void submit(Sqe sqe);

  /// Appends every available completion to `*out` (non-blocking); returns
  /// how many were appended.
  size_t reap(std::vector<Cqe>* out);

  /// Blocks until everything submitted has completed (completions still
  /// need reaping afterwards).
  void drain();

 private:
  void worker();

  const unsigned depth_;
  AsyncMetrics m_;
  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_space_;
  CondVar cv_drain_;
  std::deque<Sqe> sq_ ROC_GUARDED_BY(mu_);
  std::vector<Cqe> cq_ ROC_GUARDED_BY(mu_);
  unsigned inflight_ ROC_GUARDED_BY(mu_) = 0;  // queued + executing
  bool stop_ ROC_GUARDED_BY(mu_) = false;
  std::vector<Thread> workers_;
};

namespace detail {
struct AsyncShared;  // pool + options + metric handles shared by files
}  // namespace detail

/// Decorator that routes write-mode opens of a `PosixFileSystem` through
/// the thread-pool ring.  Any other base hands back its own `File`s
/// unchanged, so substituting this decorator never changes simulated or
/// replayed behaviour.  Read-mode opens pass straight through to the base.
class AsyncFileSystem final : public FileSystem {
 public:
  /// `base` must outlive this decorator.  Metrics register in `metrics`
  /// when given (e.g. the Rocpanda server's registry), else in a private
  /// registry.
  AsyncFileSystem(FileSystem& base, AsyncOptions options,
                  telemetry::MetricsRegistry* metrics = nullptr);
  ~AsyncFileSystem() override;

  std::unique_ptr<File> open(const std::string& path, OpenMode mode) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) override;

  /// Views over the registry metrics (the pattern Stats structs follow
  /// repo-wide).
  struct Stats {
    uint64_t submissions = 0;
    uint64_t completions = 0;
    uint64_t bytes_submitted = 0;
    uint64_t stall_waits = 0;       ///< submits that hit backpressure
    uint64_t coalesced_writes = 0;  ///< logical writes merged into an
                                    ///< already-open staging block
    uint64_t overwrite_flushes = 0; ///< barriers forced by non-append writes
    int64_t queue_depth_peak = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  FileSystem& base_;
  std::shared_ptr<detail::AsyncShared> shared_;
  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;
};

}  // namespace roc::vfs
