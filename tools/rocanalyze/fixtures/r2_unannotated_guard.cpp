// rocanalyze fixture: R2 guard-completeness violation.  Never compiled;
// rocanalyze_test.py asserts r2-unannotated fires.  (A guarded field read
// lock-free is Clang -Wthread-safety's catch: tests/compile_fail/.)
namespace roc {
class Mutex {
 public:
  void lock();
  void unlock();
};
class MutexLock {
 public:
  explicit MutexLock(Mutex& m);
};
}  // namespace roc

class StatTable {
 public:
  void bump() {
    roc::MutexLock lock(mu_);
    hits_ += 1;  // <- r2-unannotated: written under mu_, no ROC_GUARDED_BY
  }

 private:
  roc::Mutex mu_;
  unsigned long hits_ = 0;
};
