// Ablation: standard vs KeDV-style batched eigensolver.
//
// Sec. 5: the LETKF "contains eigenvalue decomposition of the size of the
// ensemble at each grid point, involving total 256x256x60 calls of an
// eigenvalue solver of the matrix size of 1000. We applied KeDV ... in
// place of the standard LAPACK solver."  Here the standard path allocates
// workspace per call (as a per-gridpoint LAPACK call would); the batched
// path reuses preallocated workspace across the batch.  A one-shot
// measurement at the paper's k = 1000 is printed after the sweep.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "letkf/eigen.hpp"
#include "util/rng.hpp"

namespace {

using namespace bda;

std::vector<float> spd_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t p = 2 * n;
  std::vector<float> y(p * n), a(n * n, 0.0f);
  for (auto& v : y) v = float(rng.normal());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      float s = (i == j) ? float(n - 1) : 0.0f;
      for (std::size_t m = 0; m < p; ++m) s += y[m * n + i] * y[m * n + j];
      a[i * n + j] = s;
      a[j * n + i] = s;
    }
  return a;
}

void BM_StandardSolver(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const auto a0 = spd_matrix(n, 11);
  std::vector<float> a(n * n), w(n);
  for (auto _ : state) {
    a = a0;
    if (!letkf::sym_eigen<float>(n, a.data(), w.data())) {  // allocs per call
      state.SkipWithError("sym_eigen did not converge");
      break;
    }
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_StandardSolver)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedSolver(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const auto a0 = spd_matrix(n, 11);
  std::vector<float> a(n * n), w(n);
  letkf::BatchedSymEigen<float> solver(n);  // workspace reused
  for (auto _ : state) {
    a = a0;
    if (!solver.solve(a.data(), w.data())) {
      state.SkipWithError("BatchedSymEigen did not converge");
      break;
    }
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_BatchedSolver)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // One decomposition at the operational ensemble size.
  const std::size_t n = 1000;
  auto a = spd_matrix(n, 7);
  std::vector<float> w(n);
  letkf::BatchedSymEigen<float> solver(n);
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = solver.solve(a.data(), w.data());
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double total = dt * 256.0 * 256.0 * 60.0;
  if (!ok) {
    std::printf("\nk = 1000 decomposition did not converge\n");
    return 1;
  }
  std::printf("\nk = 1000 decomposition (paper size): %.2f s on one core.\n",
              dt);
  std::printf("256x256x60 grid points x that = %.1f core-years per cycle — "
              "why the paper needed 8008 nodes AND a fast batched solver "
              "(and why localization caps the obs volume).\n",
              total / (86400.0 * 365.0));
  return 0;
}
