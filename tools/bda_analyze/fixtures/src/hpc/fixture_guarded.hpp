// Fixture: guarded-by.  Analyzer input only — never compiled.
#pragma once

#include <mutex>

#define BDA_GUARDED_BY(x)
#define BDA_REQUIRES(...)

namespace fixture {

class Counter {
 public:
  void bump();
  int peek() const;
  int peek_twice() const;
  void reset_locked() BDA_REQUIRES(mu_);
  int twice() const BDA_REQUIRES(mu_) { return 2 * hits_; }

 private:
  mutable std::mutex mu_;
  int hits_ BDA_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture

// Reads the guarded member with no lock and no annotation: flagged.
inline int fixture::Counter::peek() const {  // EXPECT: guarded-by
  return hits_;
}
