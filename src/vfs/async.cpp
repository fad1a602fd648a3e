#include "vfs/async.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "telemetry/trace.h"
#include "telemetry/watchdog.h"
#include "util/check_hooks.h"
#include "util/error.h"
#include "util/log.h"

namespace roc::vfs {

namespace detail {

/// Options, buffer pool and metric handles shared by every file an
/// AsyncFileSystem opens (files hold a shared_ptr, so the pool outlives
/// the decorator if a file is still open when it dies).
struct AsyncShared {
  AsyncOptions opts;
  BufferPool pool;
  AsyncMetrics engine_metrics;
  telemetry::Counter& coalesced;
  telemetry::Counter& overwrite_flushes;

  AsyncShared(AsyncOptions o, telemetry::MetricsRegistry& reg)
      : opts(o),
        engine_metrics(reg),
        coalesced(reg.counter("vfs.async.coalesced_writes")),
        overwrite_flushes(reg.counter("vfs.async.overwrite_flushes")) {}
};

}  // namespace detail

namespace {

/// Watchdog deadline for async completions: once submissions are flowing,
/// one is expected to complete within this many seconds of the last.
constexpr double kReaperDeadlineSeconds = 30.0;

/// Worker threads per ring (never more than the queue depth).
constexpr unsigned kWorkers = 2;

/// Raw-descriptor target over one buffered fd.
class PosixTarget final : public IoTarget {
 public:
  PosixTarget(const std::string& path, OpenMode mode) : path_(path) {
    const int flags =
        mode == OpenMode::kTruncate ? O_RDWR | O_CREAT | O_TRUNC : O_RDWR;
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) throw IoError("cannot open " + path);
  }

  ~PosixTarget() override {
    if (fd_ >= 0) ::close(fd_);
  }
  PosixTarget(const PosixTarget&) = delete;
  PosixTarget& operator=(const PosixTarget&) = delete;

  int64_t pwrite(const void* data, size_t n,
                 uint64_t offset) noexcept override {
    const auto* p = static_cast<const unsigned char*>(data);
    size_t left = n;
    uint64_t off = offset;
    while (left > 0) {
      const ssize_t w = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (w < 0) {
        if (errno == EINTR) continue;
        return -static_cast<int64_t>(errno);
      }
      if (w == 0) return -static_cast<int64_t>(EIO);
      p += w;
      left -= static_cast<size_t>(w);
      off += static_cast<uint64_t>(w);
    }
    return static_cast<int64_t>(n);
  }

  /// Reads exactly `n` bytes at `offset`; throws IoError on shortfall.
  /// Only called single-threaded after a ring barrier.
  void read_at(void* out, size_t n, uint64_t offset) {
    auto* p = static_cast<unsigned char*>(out);
    size_t left = n;
    uint64_t off = offset;
    while (left > 0) {
      const ssize_t r = ::pread(fd_, p, left, static_cast<off_t>(off));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw IoError("short read from " + path_);
      p += r;
      left -= static_cast<size_t>(r);
      off += static_cast<uint64_t>(r);
    }
  }

  uint64_t size() {
    struct stat st {};
    if (::fstat(fd_, &st) != 0)
      throw IoError("size query failed on " + path_);
    return static_cast<uint64_t>(st.st_size);
  }


 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace

// ---------------------------------------------------------------------------
// ThreadPoolEngine
// ---------------------------------------------------------------------------

ThreadPoolEngine::ThreadPoolEngine(unsigned queue_depth, AsyncMetrics m)
    : depth_(queue_depth > 0 ? queue_depth : 1), m_(m) {
  const unsigned workers = kWorkers < depth_ ? kWorkers : depth_;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker(); });
}

ThreadPoolEngine::~ThreadPoolEngine() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (Thread& t : workers_) t.join();
}

// Hot-path root (rocanalyze R8-R10): every async write passes through here.
ROC_HOT void ThreadPoolEngine::submit(Sqe sqe) {
  MutexLock lock(mu_);
  if (inflight_ >= depth_) {
    m_.stall_waits.add(1);
    while (inflight_ >= depth_) cv_space_.wait(mu_);
  }
  ++inflight_;
  m_.submissions.add(1);
  m_.bytes_submitted.add(sqe.len);
  m_.inflight.add(1);
  m_.queue_depth_peak.record_peak(static_cast<int64_t>(inflight_));
  {
    // Submission ring bookkeeping: bounded by queue depth (`inflight_`
    // check above), deque chunks recycled by the allocator.
    ROC_ALLOC_EXEMPT();
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: submission ring bounded by
    // queue depth; deque storage amortised across operations.
    sq_.push_back(std::move(sqe));
  }
  cv_work_.notify_one();
}

size_t ThreadPoolEngine::reap(std::vector<Cqe>* out) {
  MutexLock lock(mu_);
  const size_t n = cq_.size();
  out->insert(out->end(), cq_.begin(), cq_.end());
  cq_.clear();
  return n;
}

void ThreadPoolEngine::drain() {
  MutexLock lock(mu_);
  while (inflight_ > 0) cv_drain_.wait(mu_);
}

void ThreadPoolEngine::worker() {
  for (;;) {
    Sqe job;
    {
      MutexLock lock(mu_);
      while (!stop_ && sq_.empty()) cv_work_.wait(mu_);
      if (sq_.empty()) return;  // stop requested and nothing queued
      job = std::move(sq_.front());
      sq_.pop_front();
    }
    const int64_t r = job.target->pwrite(job.data, job.len, job.offset);
    // Each completion is one heartbeat: a wedged submission (hung disk,
    // deadlocked target) surfaces as a watchdog miss instead of a silent
    // stall behind the ring's backpressure.
    telemetry::watchdog::beat("vfs.async.reaper", kReaperDeadlineSeconds);
    {
      MutexLock lock(mu_);
      cq_.push_back(Cqe{job.id, r});
      --inflight_;
      m_.completions.add(1);
      m_.inflight.add(-1);
      cv_space_.notify_one();
      cv_drain_.notify_all();
    }
    // `job` (and its buffer pin) is released here, outside the ring lock.
  }
}

// ---------------------------------------------------------------------------
// AsyncFile
// ---------------------------------------------------------------------------

namespace {

/// A `vfs::File` whose writes are coalesced into staging blocks and
/// submitted to its own ring.  Single-threaded like every File; the
/// engine provides the concurrency underneath.
class AsyncFile final : public File {
 public:
  AsyncFile(std::shared_ptr<detail::AsyncShared> sh, const std::string& root,
            std::string path, OpenMode mode)
      : sh_(std::move(sh)),
        target_(root + path, mode),
        engine_(sh_->opts.queue_depth, sh_->engine_metrics),
        path_(std::move(path)) {
    logical_size_ = target_.size();
  }

  ~AsyncFile() override {
    try {
      flush();
    } catch (const std::exception& e) {
      ROC_ERROR << "async close of " << path_ << " failed: " << e.what();
    }
  }
  AsyncFile(const AsyncFile&) = delete;
  AsyncFile& operator=(const AsyncFile&) = delete;

  void write(const void* data, size_t n) override {
    if (n == 0) return;
    ROC_TRACE_SPAN("vfs", "write");
    check_error();
    const auto* p = static_cast<const unsigned char*>(data);
    if (!try_buffer_write(p, n)) overwrite(p, n);
  }

  void writev(std::span<const ConstBuffer> segments) override {
    ROC_TRACE_SPAN("vfs", "writev");
    check_error();
    for (const ConstBuffer& s : segments) {
      if (s.size == 0) continue;
      if (!try_buffer_write(s.data, s.size)) overwrite(s.data, s.size);
    }
  }

  void read(void* out, size_t n) override {
    if (n == 0) return;
    ROC_TRACE_SPAN("vfs", "read");
    settle();
    if (pos_ + n > logical_size_)
      throw IoError("short read from " + path_);
    target_.read_at(out, n, pos_);
    pos_ += n;
  }

  void seek(uint64_t pos) override { pos_ = pos; }
  [[nodiscard]] uint64_t tell() const override { return pos_; }
  [[nodiscard]] uint64_t size() const override { return logical_size_; }

  void flush() override {
    ROC_TRACE_SPAN("vfs", "flush");
    // Writes go straight to the kernel through a raw descriptor, so once
    // the ring settles there is no user-space buffer left to push
    // (matching PosixFile's fflush-level durability, which does not fsync
    // either).
    settle();
  }

 private:
  /// Logical end of the bytes already staged or settled.
  [[nodiscard]] uint64_t frontier() const {
    return stage_.empty() ? logical_size_ : stage_off_ + stage_len_;
  }

  /// Appends at the frontier (coalescing into the staging block) or
  /// rewrites bytes still held in staging.  Returns false when the write
  /// must take the settled-overwrite path.
  bool try_buffer_write(const unsigned char* p, size_t n) {
    if (!stage_.empty() && pos_ >= stage_off_ &&
        pos_ + n <= stage_off_ + stage_len_) {
      // Rewrite entirely inside still-staged bytes: patch in place.
      std::memcpy(stage_.data() + (pos_ - stage_off_), p, n);
      pos_ += n;
      return true;
    }
    if (pos_ != frontier()) return false;
    if (!stage_.empty() && stage_len_ > 0) sh_->coalesced.add(1);
    while (n > 0) {
      if (stage_.empty()) {
        stage_ = sh_->pool.acquire(kStagingBytes);
        stage_off_ = pos_;
        stage_len_ = 0;
      }
      const size_t room = kStagingBytes - stage_len_;
      const size_t take = n < room ? n : room;
      std::memcpy(stage_.data() + stage_len_, p, take);
      stage_len_ += take;
      pos_ += take;
      p += take;
      n -= take;
      if (pos_ > logical_size_) logical_size_ = pos_;
      if (stage_len_ == kStagingBytes) submit_staging();
    }
    return true;
  }

  /// Non-append write over settled bytes (shdf directory/superblock
  /// rewrites): barrier the ring, then write inline.  Rare by
  /// construction, so the stall is acceptable.
  void overwrite(const unsigned char* p, size_t n) {
    settle();
    sh_->overwrite_flushes.add(1);
    const int64_t r = target_.pwrite(p, n, pos_);
    if (r != static_cast<int64_t>(n)) {
      // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: write-failure error path only.
      std::string msg = "write failed on ";
      msg += path_;
      throw IoError(msg);
    }
    pos_ += n;
    if (pos_ > logical_size_) logical_size_ = pos_;
  }

  /// Seals the staging block (if any) and submits its first `stage_len_`
  /// bytes.  The sealed buffer stays pinned until its completion is
  /// reaped, then recycles into the pool.
  void submit_staging() {
    if (stage_.empty()) return;
    const size_t len = stage_len_;
    stage_len_ = 0;
    // seal() move-constructs its argument, which leaves stage_ empty: no
    // staging block is open any more.
    enqueue(sh_->pool.seal(std::move(stage_)), len, stage_off_);
    pump();
  }

  void enqueue(SharedBuffer pin, size_t len, uint64_t off) {
    ROC_TRACE_SPAN("vfs", "async.submit");
    Sqe s;
    s.id = ++next_id_;
    s.target = &target_;
    s.offset = off;
    s.data = pin.data();
    s.len = len;
    s.pin = std::move(pin);
    {
      // In-flight table bookkeeping, bounded by the ring's queue depth.
      ROC_ALLOC_EXEMPT();
      // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: in-flight table bounded by queue depth; one node per open submission.
      inflight_.emplace(s.id, s.len);
    }
    engine_.submit(std::move(s));
  }

  /// Reaps available completions, recording the first failure.
  void pump() {
    scratch_.clear();
    engine_.reap(&scratch_);
    for (const Cqe& c : scratch_) {
      auto it = inflight_.find(c.id);
      if (it == inflight_.end()) continue;
      const size_t want = it->second;
      inflight_.erase(it);
      if (c.result != static_cast<int64_t>(want) && pending_error_.empty()) {
        pending_error_ = "async write failed on ";
        pending_error_ += path_;
        if (c.result < 0) {
          pending_error_ += " (errno ";
          // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: completion-failure error path only.
          pending_error_ += std::to_string(-c.result);
          pending_error_ += ")";
        }
      }
    }
  }

  /// Full barrier: everything staged is submitted, everything submitted
  /// has completed, and any completion error has been thrown.
  void settle() {
    submit_staging();
    {
      ROC_TRACE_SPAN("vfs", "async.drain");
      engine_.drain();
    }
    pump();
    check_error();
  }

  void check_error() {
    if (pending_error_.empty()) return;
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: error propagation path only.
    std::string e;
    e.swap(pending_error_);
    throw IoError(e);
  }

  std::shared_ptr<detail::AsyncShared> sh_;
  PosixTarget target_;
  ThreadPoolEngine engine_;  ///< after target_: its workers write into it
  std::string path_;

  uint64_t pos_ = 0;
  uint64_t logical_size_ = 0;  ///< staged + settled extent

  std::vector<unsigned char> stage_;  ///< empty <=> no staging block open
  uint64_t stage_off_ = 0;
  size_t stage_len_ = 0;

  uint64_t next_id_ = 0;
  std::map<uint64_t, size_t> inflight_;  ///< id -> expected byte count
  std::vector<Cqe> scratch_;
  std::string pending_error_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AsyncFileSystem
// ---------------------------------------------------------------------------

AsyncFileSystem::AsyncFileSystem(FileSystem& base, AsyncOptions options,
                                 telemetry::MetricsRegistry* metrics)
    : base_(base) {
  if (metrics == nullptr) {
    own_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics = own_registry_.get();
  }
  shared_ = std::make_shared<detail::AsyncShared>(options, *metrics);
}

AsyncFileSystem::~AsyncFileSystem() = default;

std::unique_ptr<File> AsyncFileSystem::open(const std::string& path,
                                            OpenMode mode) {
  // `vfs::File` handles are not thread-safe, so only raw POSIX descriptors
  // can take the ring; every other base keeps its own files, which is also
  // what keeps roccheck replay and virtual-time benches bit-for-bit stable.
  auto* posix = dynamic_cast<PosixFileSystem*>(&base_);
  if (mode == OpenMode::kRead || posix == nullptr)
    return base_.open(path, mode);
  ROC_TRACE_SPAN("vfs", "open");
  return std::make_unique<AsyncFile>(shared_, posix->root(), path, mode);
}

bool AsyncFileSystem::exists(const std::string& path) {
  return base_.exists(path);
}

void AsyncFileSystem::remove(const std::string& path) { base_.remove(path); }

std::vector<std::string> AsyncFileSystem::list(const std::string& prefix) {
  return base_.list(prefix);
}

AsyncFileSystem::Stats AsyncFileSystem::stats() const {
  const AsyncMetrics& m = shared_->engine_metrics;
  Stats s;
  s.submissions = m.submissions.value();
  s.completions = m.completions.value();
  s.bytes_submitted = m.bytes_submitted.value();
  s.stall_waits = m.stall_waits.value();
  s.coalesced_writes = shared_->coalesced.value();
  s.overwrite_flushes = shared_->overwrite_flushes.value();
  s.queue_depth_peak = m.queue_depth_peak.value();
  return s;
}

}  // namespace roc::vfs
