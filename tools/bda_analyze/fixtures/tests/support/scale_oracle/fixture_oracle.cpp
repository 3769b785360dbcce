// Fixture: the seed-kernel oracle is held to the src/scale float and
// determinism checks.  Analyzer input only — never compiled.

namespace fixture {

using real = float;

real relax(real x) {
  return x * 0.5;  // EXPECT: double-literal
}

real column_sum(const real* x, int n) {
  real sum = 0;
#pragma omp parallel for reduction(+ : sum)  // EXPECT: nondet-fp-reduction
  for (int i = 0; i < n; ++i) sum += x[i];
  return sum;
}

}  // namespace fixture
