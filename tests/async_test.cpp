/// \file async_test.cpp
/// \brief Unit and property tests for the async vfs write path: the
/// thread-pool ring, and the byte-identity guarantee of `AsyncFile`
/// against the synchronous POSIX path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "util/buffer.h"
#include "util/mutex.h"
#include "util/thread.h"
#include "vfs/async.h"
#include "vfs/vfs.h"

namespace roc::vfs {
namespace {

// ---------------------------------------------------------------------------
// Engine fixtures
// ---------------------------------------------------------------------------

/// Writes land in a mutex-guarded flat byte array — safe for concurrent
/// engine workers, and inspectable afterwards.
class FlatTarget final : public IoTarget {
 public:
  explicit FlatTarget(size_t capacity) : bytes_(capacity, 0) {}

  int64_t pwrite(const void* data, size_t n,
                 uint64_t offset) noexcept override {
    MutexLock lock(mu_);
    if (offset + n > bytes_.size()) return -static_cast<int64_t>(EFBIG);
    std::memcpy(bytes_.data() + offset, data, n);
    if (offset + n > extent_) extent_ = offset + n;
    return static_cast<int64_t>(n);
  }

  [[nodiscard]] std::vector<unsigned char> contents() {
    MutexLock lock(mu_);
    return {bytes_.begin(), bytes_.begin() + static_cast<long>(extent_)};
  }

 private:
  Mutex mu_;
  std::vector<unsigned char> bytes_ ROC_GUARDED_BY(mu_);
  uint64_t extent_ ROC_GUARDED_BY(mu_) = 0;
};

/// pwrite blocks until the gate opens; records the peak number of
/// concurrent writers, which exposes the engine's real parallelism.
class GateTarget final : public IoTarget {
 public:
  int64_t pwrite(const void*, size_t n, uint64_t) noexcept override {
    MutexLock lock(mu_);
    ++active_;
    if (active_ > peak_) peak_ = active_;
    while (!open_) cv_.wait(mu_);
    --active_;
    return static_cast<int64_t>(n);
  }

  void open_gate() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  [[nodiscard]] unsigned peak() {
    MutexLock lock(mu_);
    return peak_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ ROC_GUARDED_BY(mu_) = false;
  unsigned active_ ROC_GUARDED_BY(mu_) = 0;
  unsigned peak_ ROC_GUARDED_BY(mu_) = 0;
};

/// Every write fails with a fixed errno.
class FailingTarget final : public IoTarget {
 public:
  int64_t pwrite(const void*, size_t, uint64_t) noexcept override {
    return -static_cast<int64_t>(ENOSPC);
  }
};

Sqe make_sqe(uint64_t id, IoTarget* t, const unsigned char* data, size_t n,
             uint64_t off) {
  Sqe s;
  s.id = id;
  s.target = t;
  s.offset = off;
  s.data = data;
  s.len = n;
  return s;
}

/// Drains the engine and reaps everything still pending.
std::vector<Cqe> settle(ThreadPoolEngine& e) {
  e.drain();
  std::vector<Cqe> out;
  e.reap(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

TEST(ThreadPoolEngine, WritesEverythingAndCompletionsMatch) {
  telemetry::MetricsRegistry reg;
  ThreadPoolEngine e(8, AsyncMetrics(reg));
  FlatTarget target(1 << 16);
  std::vector<std::vector<unsigned char>> payloads;
  for (int i = 0; i < 40; ++i)
    payloads.emplace_back(100, static_cast<unsigned char>(i + 1));
  for (int i = 0; i < 40; ++i)
    e.submit(make_sqe(static_cast<uint64_t>(i + 1), &target,
                      payloads[static_cast<size_t>(i)].data(), 100,
                      static_cast<uint64_t>(i) * 100));
  const auto cq = settle(e);
  ASSERT_EQ(cq.size(), 40u);
  for (const Cqe& c : cq) EXPECT_EQ(c.result, 100);
  const auto bytes = target.contents();
  ASSERT_EQ(bytes.size(), 4000u);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(bytes[static_cast<size_t>(i) * 100],
              static_cast<unsigned char>(i + 1));
  EXPECT_EQ(reg.counter("vfs.async.completions").value(), 40u);
  EXPECT_EQ(reg.counter("vfs.async.bytes_submitted").value(), 4000u);
}

TEST(ThreadPoolEngine, BackpressureBoundsInflightAtQueueDepth) {
  telemetry::MetricsRegistry reg;
  constexpr unsigned kDepth = 2;
  ThreadPoolEngine e(kDepth, AsyncMetrics(reg));
  GateTarget gate;
  static const unsigned char byte = 0;
  // The producer must block on the ring bound: the gate never opens until
  // the stall is observed, so the 3rd submit cannot proceed.
  roc::Thread producer([&] {
    for (uint64_t id = 1; id <= 6; ++id)
      e.submit(make_sqe(id, &gate, &byte, 1, 0));
  });
  while (reg.counter("vfs.async.stall_waits").value() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_LE(reg.gauge("vfs.async.queue_depth_peak").value(),
            static_cast<int64_t>(kDepth));
  gate.open_gate();
  producer.join();
  const auto cq = settle(e);
  EXPECT_EQ(cq.size(), 6u);
  EXPECT_LE(gate.peak(), kDepth);
  EXPECT_GE(reg.counter("vfs.async.stall_waits").value(), 1u);
}

TEST(ThreadPoolEngine, ErrorResultsSurfaceInCompletions) {
  telemetry::MetricsRegistry reg;
  ThreadPoolEngine e(4, AsyncMetrics(reg));
  FailingTarget target;
  static const unsigned char byte = 0;
  e.submit(make_sqe(7, &target, &byte, 1, 0));
  const auto cq = settle(e);
  ASSERT_EQ(cq.size(), 1u);
  EXPECT_EQ(cq[0].id, 7u);
  EXPECT_EQ(cq[0].result, -static_cast<int64_t>(ENOSPC));
}

// ---------------------------------------------------------------------------
// Byte-identity property test
// ---------------------------------------------------------------------------

/// Replays a deterministic mixed op sequence — appends, vectored appends,
/// seek-back overwrites, flushes — with append sizes up to `max_len`,
/// drawn to straddle page boundaries (plenty of non-4096-multiple tails).
void run_ops(File& f, uint32_t seed, size_t max_len = 9000, int ops = 300) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> len_dist(1, max_len);
  uint64_t end = 0;
  auto fill = [&rng](std::vector<unsigned char>& v) {
    for (auto& b : v) b = static_cast<unsigned char>(rng());
  };
  for (int op = 0; op < ops; ++op) {
    const unsigned kind = rng() % 10;
    if (kind < 6 || end < 128) {  // plain append
      size_t n = len_dist(rng);
      if (op % 17 == 0) n = 4096 * (1 + rng() % 3);  // page-sized runs
      std::vector<unsigned char> data(n);
      fill(data);
      f.seek(end);
      f.write(data.data(), data.size());
      end += n;
    } else if (kind < 8) {  // vectored append, 2-4 segments
      const size_t nseg = 2 + rng() % 3;
      std::vector<std::vector<unsigned char>> segs(nseg);
      std::vector<ConstBuffer> views;
      size_t total = 0;
      for (auto& s : segs) {
        s.resize(1 + rng() % 3000);
        fill(s);
        views.emplace_back(s.data(), s.size());
        total += s.size();
      }
      f.seek(end);
      f.writev(views);
      end += total;
    } else if (kind == 8) {  // seek-back overwrite of settled/staged bytes
      const uint64_t pos = rng() % (end - 64);
      std::vector<unsigned char> data(1 + rng() % 64);
      fill(data);
      f.seek(pos);
      f.write(data.data(), data.size());
    } else {  // flush barrier mid-stream
      f.flush();
    }
  }
  f.flush();
  ASSERT_EQ(f.size(), end);
}

std::vector<unsigned char> read_all(FileSystem& fs, const std::string& path) {
  auto f = fs.open(path, OpenMode::kRead);
  std::vector<unsigned char> bytes(f->size());
  f->read(bytes.data(), bytes.size());
  return bytes;
}

class ByteIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("rocpio_async_ident_" + std::to_string(::getpid()));
    fs_ = std::make_unique<PosixFileSystem>(root_.string());
  }
  void TearDown() override {
    fs_.reset();
    std::filesystem::remove_all(root_);
  }

  /// Writes the reference file synchronously and the candidate through an
  /// AsyncFileSystem with `opts`; the two must match bit for bit.
  void expect_identical(const char* name, AsyncOptions opts,
                        size_t max_len = 9000, int ops = 300) {
    constexpr uint32_t kSeed = 20260808;
    {
      auto ref = fs_->open("ref.bin", OpenMode::kTruncate);
      run_ops(*ref, kSeed, max_len, ops);
    }
    AsyncFileSystem async_fs(*fs_, opts);
    {
      // Name assembled piecewise (GCC 12 PR105651 -Wrestrict at -O3).
      std::string cand = "cand_";
      cand += name;
      cand += ".bin";
      auto f = async_fs.open(cand, OpenMode::kTruncate);
      run_ops(*f, kSeed, max_len, ops);
      f.reset();  // close settles the ring
      EXPECT_EQ(read_all(*fs_, cand), read_all(*fs_, "ref.bin"))
          << "config " << name << " diverged from the sync path";
    }
  }

  std::unique_ptr<PosixFileSystem> fs_;
  std::filesystem::path root_;
};

TEST_F(ByteIdentityTest, ThreadPool) {
  expect_identical("threads", AsyncOptions{});
}

TEST_F(ByteIdentityTest, ThreadPoolSmallStagingBlocks) {
  // Staging blocks that are small against the writes: appends up to a
  // staging block and more, single writes that fill a block and spill into
  // the next, overwrites of bytes that are staged in one block and settled
  // in another, and a shallow ring that stalls.
  AsyncOptions o;
  o.queue_depth = 2;
  expect_identical("staging", o, kStagingBytes + 4096, /*ops=*/60);
}

TEST(ByteIdentityMem, ShimOverMemFileSystemMatchesBase) {
  MemFileSystem mem;
  {
    auto ref = mem.open("ref.bin", OpenMode::kTruncate);
    run_ops(*ref, 42);
  }
  AsyncFileSystem async_fs(mem, AsyncOptions{});
  {
    auto f = async_fs.open("cand.bin", OpenMode::kTruncate);
    run_ops(*f, 42);
  }
  EXPECT_EQ(read_all(mem, "cand.bin"), read_all(mem, "ref.bin"));
  EXPECT_EQ(async_fs.stats().submissions, 0u);  // the base's own File
}

// ---------------------------------------------------------------------------
// AsyncFileSystem behaviour
// ---------------------------------------------------------------------------

class AsyncFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("rocpio_async_fs_" + std::to_string(::getpid()));
    fs_ = std::make_unique<PosixFileSystem>(root_.string());
  }
  void TearDown() override {
    fs_.reset();
    std::filesystem::remove_all(root_);
  }

  std::unique_ptr<PosixFileSystem> fs_;
  std::filesystem::path root_;
};

TEST_F(AsyncFsTest, CoalescingMergesSmallAppendsIntoFewSubmissions) {
  AsyncFileSystem async_fs(*fs_, AsyncOptions{});
  {
    auto f = async_fs.open("many.bin", OpenMode::kTruncate);
    std::vector<unsigned char> chunk(1000, 0xAB);
    for (int i = 0; i < 200; ++i) f->write(chunk.data(), chunk.size());
  }
  const auto s = async_fs.stats();
  EXPECT_EQ(s.completions, s.submissions);
  // 200 KB at 256 KiB staging: one block, one submission.
  EXPECT_LE(s.submissions, 2u);
  EXPECT_EQ(s.coalesced_writes, 199u);
  EXPECT_EQ(s.bytes_submitted, 200000u);
}

TEST_F(AsyncFsTest, OverwritesBarrierTheRing) {
  AsyncFileSystem async_fs(*fs_, AsyncOptions{});
  {
    auto f = async_fs.open("over.bin", OpenMode::kTruncate);
    std::vector<unsigned char> data(10000, 0x11);
    f->write(data.data(), data.size());
    f->flush();  // settle so the rewrite cannot be patched in staging
    f->seek(100);
    f->write(data.data(), 50);
  }
  EXPECT_GE(async_fs.stats().overwrite_flushes, 1u);
}

TEST_F(AsyncFsTest, ReadModeOpensPassThrough) {
  { (void)fs_->open("r.bin", OpenMode::kTruncate); }
  AsyncFileSystem async_fs(*fs_, AsyncOptions{});
  auto f = async_fs.open("r.bin", OpenMode::kRead);
  EXPECT_EQ(f->size(), 0u);
  EXPECT_TRUE(async_fs.exists("r.bin"));
  async_fs.remove("r.bin");
  EXPECT_FALSE(fs_->exists("r.bin"));
}

}  // namespace
}  // namespace roc::vfs
