// Negative-compile fixture for Clang thread-safety analysis: reading a
// ROC_GUARDED_BY field without holding its mutex must be rejected by
// `clang++ -Wthread-safety -Werror` (the thread-safety CI job compiles this
// file and expects that error).  With -DROC_FIXTURE_TAKE_LOCK the read
// takes the lock and the file must compile cleanly, which shows the
// rejection comes from the analysis and not from a broken fixture.  Not
// part of any build target.

#include "util/mutex.h"

class Tally {
 public:
  void bump() {
    roc::MutexLock lock(mu_);
    ++total_;
  }

  unsigned long peek() {
#if defined(ROC_FIXTURE_TAKE_LOCK)
    roc::MutexLock lock(mu_);
#endif
    return total_;  // guarded field: lock-free without the define
  }

 private:
  roc::Mutex mu_;
  unsigned long total_ ROC_GUARDED_BY(mu_) = 0;
};

unsigned long bump_and_peek(Tally& t) {
  t.bump();
  return t.peek();
}
