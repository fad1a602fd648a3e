// Planted-race fixture for ThreadSanitizer: one thread increments a count
// under its mutex, a second decrements it without taking the lock -- the
// shape of a pending-work counter whose decrement slipped out of its
// critical section.  The two threads share no happens-before edge, so
// TSan must report "ThreadSanitizer: data race" on every run, whatever
// the interleaving.  Built and registered as a ctest only when
// ROCPIO_SANITIZE contains `thread` (tests/CMakeLists.txt); the test
// passes iff that report appears.  The count carries no ROC_GUARDED_BY on
// purpose: with it, clang -Wthread-safety would reject the file at compile
// time, which is tests/compile_fail/'s job, not this one's.

#include "util/mutex.h"
#include "util/thread.h"

namespace {

constexpr int kRounds = 1000;

roc::Mutex mu;
long pending = 0;  // meant to be guarded by `mu`

}  // namespace

int main() {
  roc::Thread producer([] {
    for (int i = 0; i < kRounds; ++i) {
      roc::MutexLock lock(mu);
      ++pending;
    }
  });
  roc::Thread consumer([] {
    for (int i = 0; i < kRounds; ++i) --pending;  // the planted race
  });
  producer.join();
  consumer.join();
  return 0;
}
