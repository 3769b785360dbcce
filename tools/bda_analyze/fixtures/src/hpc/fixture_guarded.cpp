// Fixture: guarded-by over the sibling header's members.  Locking the
// mutex, or a BDA_REQUIRES on the declaration, makes a use fine.
#include "fixture_guarded.hpp"

namespace fixture {

void Counter::bump() {
  std::lock_guard<std::mutex> lock(mu_);
  ++hits_;
}

void Counter::reset_locked() { hits_ = 0; }

}  // namespace fixture

// Reads the sibling header's guarded member with no lock: flagged.
int fixture::Counter::peek_twice() const {  // EXPECT: guarded-by
  return 2 * hits_;
}
