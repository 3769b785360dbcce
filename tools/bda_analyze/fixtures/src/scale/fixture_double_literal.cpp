// Fixture: double-literal.  Analyzer input only — never compiled.

namespace fixture {

using real = float;

real damp(real x) {
  return x * 0.5;  // EXPECT: double-literal
}

// Typed wrappers and compile-time constants promote nothing: no finding.
template <typename T>
T wrapped(T x) {
  return x * real(0.5) + T(9.80665 / 2.0);
}
constexpr real kHalf = 0.5;

// The literal sits in a block comment: no finding.  A line-based stripper
// that ignores inline block comments flags this line.
real was_half(real x) { return x * /* was 0.5 */ 2.0f; }

}  // namespace fixture
