// Fixture: checks that cover tests/ and checks that stop at src/.

#include <condition_variable>
#include <mutex>

namespace fixture {

// reinterpret-cast covers every source tree.
const char* as_chars(const unsigned char* p) {
  return reinterpret_cast<const char*>(p);  // EXPECT: reinterpret-cast
}

// mutex-annotation reads .cpp files in src/ only: a test's local wedge
// with a bare mutex/cv pair is not flagged.
struct Wedge {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
};

}  // namespace fixture
