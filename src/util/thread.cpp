#include "util/thread.h"

namespace roc {

Thread::Thread(std::function<void()> body) {
  const uint64_t spawn_token = check::next_token();
  finish_token_ = check::next_token();
  const uint64_t finish_token = finish_token_;
  ROC_CHECKHOOK_(packet_send(spawn_token));
  t_ = std::thread([spawn_token, finish_token, fn = std::move(body)] {
    ROC_CHECKHOOK_(packet_recv(spawn_token));
    fn();
    ROC_CHECKHOOK_(packet_send(finish_token));
  });
}

Thread& Thread::operator=(Thread&& other) noexcept {
  if (this != &other) {
    if (t_.joinable()) t_.join();
    t_ = std::move(other.t_);
    finish_token_ = other.finish_token_;
    other.finish_token_ = 0;
  }
  return *this;
}

Thread::~Thread() {
  if (t_.joinable()) t_.join();
}

void Thread::join() {
  t_.join();
  if (finish_token_ != 0) {
    ROC_CHECKHOOK_(packet_recv(finish_token_));
    finish_token_ = 0;
  }
}

void Thread::abandon() { t_.detach(); }  // LINT-ALLOW(raw-thread): shim

}  // namespace roc
