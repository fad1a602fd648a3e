#include "util/check_hooks.h"

namespace roc::check {

namespace detail {
std::atomic<Hooks*> g_hooks{nullptr};
}  // namespace detail

Hooks* set_hooks(Hooks* h) {
  return detail::g_hooks.exchange(h, std::memory_order_acq_rel);
}

namespace {
std::atomic<uint64_t> g_token{1};
}  // namespace

uint64_t next_token() {
  return g_token.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace roc::check
