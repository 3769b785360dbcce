// Fixture: the seed LETKF oracle is held to the src/letkf float and
// determinism checks.  Analyzer input only — never compiled.

namespace fixture {

using real = float;

real taper(real r) {
  return 1.0 - r;  // EXPECT: double-literal
}

real gram_entry(const real* yr, const real* y, int p) {
  real s = 0;
#pragma omp parallel for reduction(+ : s)  // EXPECT: nondet-fp-reduction
  for (int n = 0; n < p; ++n) s += yr[n] * y[n];
  return s;
}

}  // namespace fixture
