#pragma once
/// \file metrics.h
/// \brief Lock-cheap named metrics: counters, gauges, histograms.
///
/// A MetricsRegistry maps names to metric objects.  Registration (the
/// `counter("...")` lookup) takes the registry mutex; the returned
/// reference is stable for the registry's lifetime, so hot paths register
/// once and then update through the cached handle with no lock at all:
///
///   Counter& blocks = registry_.counter("server.blocks_received");
///   ...
///   blocks.add(1);                       // wait-free sharded atomic
///
/// Counters shard their atomics across cache lines by thread so that many
/// threads incrementing the same counter do not fight over one line.  All
/// updates use seq_cst: cross-counter invariants (e.g. race_test's
/// `blocks_written <= 2 * write_calls`, polled concurrently) rely on a
/// total order over increments, and an uncontended seq_cst fetch_add costs
/// the same lock prefix as relaxed on x86.
///
/// Naming scheme (see DESIGN.md "Telemetry"): `<component>.<what>` with
/// `_bytes` / `_seconds` suffixes for dimensioned values, e.g.
/// `client.bytes_sent`, `server.spills`, `rochdf.snapshot_waits`.
///
/// Each pipeline component owns an instance registry (many simulated ranks
/// share one process, so process-globals would collide); `global()` exists
/// for process-wide odds and ends and for tools.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace roc::telemetry {

/// Monotonic event counter with per-thread sharding.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_seq_cst);
  }
  void increment() noexcept { add(1); }

  /// Sum over shards.  Concurrent adds may or may not be included, but the
  /// value never decreases between calls (each shard is monotonic).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_seq_cst);
    return total;
  }

  /// Not linearisable against concurrent add(); callers quiesce first.
  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_seq_cst);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() noexcept;
  std::array<Shard, kShards> shards_;
};

/// A value that can go up and down (queue depths, buffered bytes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_seq_cst); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_seq_cst); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_seq_cst);
  }
  void reset() noexcept { set(0); }

  /// Sets v and returns whether it exceeded the running maximum, updating
  /// the max too (single atomic max loop) — used for *_peak gauges.
  void record_peak(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_seq_cst);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_seq_cst)) {
    }
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram with Prometheus-style "le" semantics: bucket i
/// counts observations v with v <= bounds[i] (and > bounds[i-1]); one extra
/// overflow bucket counts v > bounds.back().
class Histogram {
 public:
  struct Snapshot {
    std::vector<double> bounds;        ///< upper bounds, ascending
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 entries
    std::uint64_t count = 0;           ///< total observations
    double sum = 0.0;                  ///< sum of observed values
  };

  /// `bounds` must be sorted ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;
  [[nodiscard]] Snapshot snapshot() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential latency buckets, 1µs .. 30s (seconds).
[[nodiscard]] std::vector<double> default_time_bounds();
/// Exponential size buckets, 256 B .. 256 MiB (bytes).
[[nodiscard]] std::vector<double> default_size_bounds();

/// A named collection of metrics.  Lookup is mutex-guarded; returned
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric.  A name identifies exactly one
  /// metric kind; re-registering with the same kind returns the same
  /// object.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first registration; empty means
  /// default_time_bounds().
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  /// Zeroes every metric (counters, gauges, histogram buckets).
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

  /// `<name> <value>` per line, sorted by name; histograms expand to
  /// `<name>_bucket{le=...}` / `_sum` / `_count` lines.
  [[nodiscard]] std::string to_text() const;
  /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ROC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ROC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      ROC_GUARDED_BY(mu_);
};

/// Process-wide registry (tools, one-off counters).  Components that can
/// be instantiated many times per process own their own registries.
MetricsRegistry& global();

}  // namespace roc::telemetry
