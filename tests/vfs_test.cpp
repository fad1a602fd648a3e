/// \file vfs_test.cpp
/// \brief Unit tests for the virtual file system (Posix and in-memory).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include "util/thread.h"
#include "vfs/async.h"
#include "vfs/vfs.h"

namespace roc::vfs {
namespace {

/// Parameterized over every implementation — including the async decorator
/// over a POSIX base (the ring, at the default depth and at depth 1, where
/// every submission waits for the one in flight) and over a Mem base
/// (pass-through): they must all behave identically through the
/// File/FileSystem contract.
class FileSystemTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string param = GetParam();
    if (param != "mem" && param != "async-mem") {
      root_ = std::filesystem::temp_directory_path() /
              ("rocpio_vfs_test_" + std::to_string(::getpid()));
      base_ = std::make_unique<PosixFileSystem>(root_.string());
    } else {
      base_ = std::make_unique<MemFileSystem>();
    }
    if (param == "posix" || param == "mem") {
      fs_ = std::move(base_);
      return;
    }
    AsyncOptions opts;
    if (param == "async-threads") opts.queue_depth = 1;
    fs_ = std::make_unique<AsyncFileSystem>(*base_, opts);
  }
  void TearDown() override {
    fs_.reset();
    base_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<FileSystem> base_;  ///< wrapped base for async variants
  std::unique_ptr<FileSystem> fs_;
  std::filesystem::path root_;
};

TEST_P(FileSystemTest, WriteThenReadBack) {
  auto f = fs_->open("a.bin", OpenMode::kTruncate);
  const std::string data = "hello, file system";
  f->write(data.data(), data.size());
  EXPECT_EQ(f->size(), data.size());
  f.reset();

  auto g = fs_->open("a.bin", OpenMode::kRead);
  std::string back(data.size(), '\0');
  g->read(back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST_P(FileSystemTest, SeekAndOverwrite) {
  auto f = fs_->open("b.bin", OpenMode::kTruncate);
  f->write("AAAAAAAA", 8);
  f->seek(2);
  f->write("xx", 2);
  EXPECT_EQ(f->tell(), 4u);
  f->seek(0);
  std::string s(8, '\0');
  f->read(s.data(), 8);
  EXPECT_EQ(s, "AAxxAAAA");
}

TEST_P(FileSystemTest, OpenMissingFileThrows) {
  EXPECT_THROW((void)fs_->open("missing.bin", OpenMode::kRead), IoError);
  EXPECT_THROW((void)fs_->open("missing.bin", OpenMode::kReadWrite), IoError);
}

TEST_P(FileSystemTest, ShortReadThrows) {
  auto f = fs_->open("c.bin", OpenMode::kTruncate);
  f->write("123", 3);
  f->seek(0);
  char buf[10];
  EXPECT_THROW(f->read(buf, 10), IoError);
}

TEST_P(FileSystemTest, TruncateClearsOldContent) {
  {
    auto f = fs_->open("d.bin", OpenMode::kTruncate);
    f->write("old content", 11);
  }
  {
    auto f = fs_->open("d.bin", OpenMode::kTruncate);
    EXPECT_EQ(f->size(), 0u);
  }
}

TEST_P(FileSystemTest, ExistsAndRemove) {
  EXPECT_FALSE(fs_->exists("e.bin"));
  { (void)fs_->open("e.bin", OpenMode::kTruncate); }
  EXPECT_TRUE(fs_->exists("e.bin"));
  fs_->remove("e.bin");
  EXPECT_FALSE(fs_->exists("e.bin"));
  EXPECT_NO_THROW(fs_->remove("e.bin"));  // idempotent
}

TEST_P(FileSystemTest, ListByPrefixSorted) {
  for (const char* name : {"snap_01_p2", "snap_01_p0", "snap_01_p1", "other"})
    (void)fs_->open(name, OpenMode::kTruncate);
  const auto files = fs_->list("snap_01_p");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "snap_01_p0");
  EXPECT_EQ(files[1], "snap_01_p1");
  EXPECT_EQ(files[2], "snap_01_p2");
}

TEST_P(FileSystemTest, ReadWriteModePreservesContent) {
  {
    auto f = fs_->open("f.bin", OpenMode::kTruncate);
    f->write("0123456789", 10);
  }
  {
    auto f = fs_->open("f.bin", OpenMode::kReadWrite);
    EXPECT_EQ(f->size(), 10u);
    f->seek(10);
    f->write("abc", 3);
  }
  auto f = fs_->open("f.bin", OpenMode::kRead);
  EXPECT_EQ(f->size(), 13u);
}

TEST_P(FileSystemTest, ZeroByteOperationsAreNoOps) {
  auto f = fs_->open("g.bin", OpenMode::kTruncate);
  f->write(nullptr, 0);
  EXPECT_EQ(f->size(), 0u);
  f->read(nullptr, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, FileSystemTest,
                         ::testing::Values("posix", "mem", "async-auto",
                                           "async-threads", "async-mem"));

TEST(MemFileSystem, SharedStoreAcrossCopies) {
  MemFileSystem a;
  MemFileSystem b = a;  // same store
  { (void)a.open("x", OpenMode::kTruncate); }
  EXPECT_TRUE(b.exists("x"));
}

TEST(MemFileSystem, CountersTrackContent) {
  MemFileSystem fs;
  EXPECT_EQ(fs.file_count(), 0u);
  {
    auto f = fs.open("x", OpenMode::kTruncate);
    f->write("12345", 5);
  }
  EXPECT_EQ(fs.file_count(), 1u);
  EXPECT_EQ(fs.total_bytes(), 5u);
}

TEST(MemFileSystem, ConcurrentDistinctFiles) {
  // Many threads write distinct files concurrently; the directory map must
  // stay consistent.
  MemFileSystem fs;
  std::vector<roc::Thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&fs, t] {
      for (int i = 0; i < 50; ++i) {
        // Name assembled piecewise: `"lit" + std::to_string(...)` trips
        // GCC 12's bogus -Wrestrict at -O3 (PR105651).
        std::string name = "t";
        name += std::to_string(t);
        name += '_';
        name += std::to_string(i);
        auto f = fs.open(name, OpenMode::kTruncate);
        const int v = t * 1000 + i;
        f->write(&v, sizeof(v));
      }
    });
  }
  threads.clear();  // joins
  EXPECT_EQ(fs.file_count(), 400u);
}

}  // namespace
}  // namespace roc::vfs
