#pragma once
/// \file hot.h
/// \brief Hot-path annotations and the sanctioned-allocation bracket.
///
/// ROC_HOT marks a hot-path ROOT for tools/rocanalyze (rules R8-R10): the
/// static analyzer computes the closure of everything reachable from the
/// annotation and rejects heap allocation, owned-bytes materialisation
/// and cold-root calls (stdio, formatting, trace sinks) inside it.
/// ROC_COLD marks an explicitly sanctioned cold branch the closure must
/// not descend into (slow-path fallbacks, error reporting).  Both expand
/// to nothing; they are annotations in the thread_annotations.h sense.
///
/// ROC_ALLOC_EXEMPT() brackets the sanctioned BufferPool channel
/// (acquire/seal recycle their backing stores) and the bounded bookkeeping
/// growths the static analyzer also accepts (mailbox and submission rings,
/// shdf directory entries, the in-memory device's backing store).  It
/// raises a per-thread depth for the rest of the enclosing block; the
/// counting operator new of src/check/alloc_hook.cpp counts allocations
/// made at a non-zero depth in the raw thread totals but not in
/// thread_charged_allocs(), which tests and bench_micro's allocs_per_op
/// diff around each steady-state operation.  Without the interposer
/// linked nothing reads the depth: the bracket is a thread-local
/// increment.

#define ROC_HOT
#define ROC_COLD

namespace roc::hot {

/// Depth of the ROC_ALLOC_EXEMPT brackets open on this thread.
inline thread_local int t_alloc_exempt_depth = 0;

class ScopedAllocExempt {
 public:
  ScopedAllocExempt() { ++t_alloc_exempt_depth; }
  ~ScopedAllocExempt() { --t_alloc_exempt_depth; }
  ScopedAllocExempt(const ScopedAllocExempt&) = delete;
  ScopedAllocExempt& operator=(const ScopedAllocExempt&) = delete;
};

}  // namespace roc::hot

#define ROC_HOT_CAT2_(a, b) a##b
#define ROC_HOT_CAT_(a, b) ROC_HOT_CAT2_(a, b)
#define ROC_ALLOC_EXEMPT() \
  ::roc::hot::ScopedAllocExempt ROC_HOT_CAT_(roc_allocex_, __LINE__) {}
