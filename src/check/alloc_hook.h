#pragma once
/// \file alloc_hook.h
/// \brief Counting operator new/delete interposer.
///
/// Linking this TU replaces the global allocation functions with counting
/// wrappers.  It is the dynamic catcher of hot-path allocations; the
/// static one is rocanalyze R8-R10 over the ROC_HOT roots.  Semantics:
///
///   * every operator-new allocation bumps per-thread and process
///     totals (raw interposer truth -- tests assert exact counts);
///   * allocations made outside an ROC_ALLOC_EXEMPT bracket
///     (src/util/hot.h) are also CHARGED to the calling thread.  Tests
///     (tests/alloc_test.cpp) and bench_micro's allocs_per_op counters
///     diff thread_charged_allocs() around a steady-state marshal, ship or
///     pass-through write; tools/bench_compare.py pins the bench counters
///     to exactly 0.
///
/// The exempt bracket mirrors the static analyzer's sanctioned-channel
/// accounting (allocsum.py CHANNEL_FILES): BufferPool recycling is
/// counted in raw totals but never charged.

#include <cstdint>

namespace roc::check {

/// Raw per-thread interposer counters (exempt allocations included).
uint64_t thread_allocs();
uint64_t thread_frees();
uint64_t thread_alloc_bytes();
/// Unsanctioned allocations on this thread: everything outside an
/// ROC_ALLOC_EXEMPT bracket.  Benches diff this around each operation for
/// allocs/op.
uint64_t thread_charged_allocs();
/// Process-wide allocation total.
uint64_t total_allocs();

}  // namespace roc::check
