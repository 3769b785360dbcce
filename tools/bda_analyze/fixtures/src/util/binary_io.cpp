// Fixture: the one file allowed to spell reinterpret_cast — no finding.

namespace fixture {

const char* as_chars(const unsigned char* p) {
  return reinterpret_cast<const char*>(p);
}

}  // namespace fixture
