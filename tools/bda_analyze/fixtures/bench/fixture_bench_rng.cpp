// Fixture: rng-thread-discipline reads src/ only.  A bench client thread
// drawing its own request stream is not flagged.
#include <future>

namespace fixture {

struct Rng {
  explicit Rng(unsigned seed);
  double uniform();
};

double client() {
  auto fut = std::async(std::launch::async, [] {
    Rng rng(11);
    return rng.uniform();
  });
  return fut.get();
}

}  // namespace fixture
