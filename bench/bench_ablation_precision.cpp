// Ablation: single vs double precision, and 16-bit perturbation storage.
//
// Sec. 5: "We converted variables of both SCALE and LETKF Fortran codes
// from double precision to single precision for 2x acceleration."  The
// same kernels here are templated on the scalar type; google-benchmark
// measures both instantiations of the LETKF weight solve, the symmetric
// eigensolver, the vertical tridiagonal solve and the ensemble-space GEMM.
//
// One rung below FP32 compute: keep the ensemble *perturbations* (member
// minus mean) in 16-bit storage between cycles while every kernel still
// computes in FP32 (util/halfprec.hpp).  Before the kernel timings, this
// bench runs a twin forecast experiment — identical members except for one
// storage round-trip of the perturbations at analysis time — and reports
// the accumulated-precipitation threat score of each storage format
// against the FP32 nature run.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "letkf/letkf_core.hpp"
#include "scale/ensemble.hpp"
#include "scale/kernels.hpp"
#include "scale/model.hpp"
#include "util/halfprec.hpp"
#include "util/rng.hpp"
#include "verify/scores.hpp"

namespace {

using bda::Rng;

template <typename T>
void BM_LetkfWeights(benchmark::State& state) {
  const std::size_t k = std::size_t(state.range(0));
  const std::size_t p = 2 * k;
  Rng rng(1);
  std::vector<T> Y(p * k), d(p), rinv(p, T(1)), W(k * k);
  for (auto& v : Y) v = T(rng.normal());
  for (auto& v : d) v = T(rng.normal());
  bda::letkf::LetkfWorkspace<T> ws(k);
  for (auto _ : state) {
    if (!bda::letkf::letkf_weights<T>(k, p, Y.data(), d.data(), rinv.data(),
                                      T(0.95), T(1), ws, W.data())) {
      state.SkipWithError("letkf_weights: eigensolver did not converge");
      break;
    }
    benchmark::DoNotOptimize(W.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_LetkfWeights, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_LetkfWeights, double)->Arg(32)->Arg(64)->Arg(128);

template <typename T>
void BM_SymEigen(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(2);
  std::vector<T> a0(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const T x = T(rng.normal());
      a0[i * n + j] = x;
      a0[j * n + i] = x;
    }
  std::vector<T> a(n * n), w(n);
  for (auto _ : state) {
    a = a0;
    if (!bda::letkf::sym_eigen<T>(n, a.data(), w.data())) {
      state.SkipWithError("sym_eigen did not converge");
      break;
    }
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK_TEMPLATE(BM_SymEigen, float)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_SymEigen, double)->Arg(64)->Arg(128);

template <typename T>
void BM_Tridiagonal(benchmark::State& state) {
  // One HEVI column solve (nz = 60, Table 3) per iteration batch of 1024
  // columns — the shape of the vertical-implicit step.
  const std::size_t n = 60;
  Rng rng(3);
  std::vector<T> a(n), b(n), c0(n), d0(n), c(n), d(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = T(rng.uniform(-0.4, 0.4));
    c0[i] = T(rng.uniform(-0.4, 0.4));
    b[i] = T(2.5);
    d0[i] = T(rng.normal());
  }
  for (auto _ : state) {
    for (int col = 0; col < 1024; ++col) {
      c = c0;
      d = d0;
      bda::scale::solve_tridiagonal<T>(a, b, c, d);
      benchmark::DoNotOptimize(d.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK_TEMPLATE(BM_Tridiagonal, float);
BENCHMARK_TEMPLATE(BM_Tridiagonal, double);

template <typename T>
void BM_EnsembleGemm(benchmark::State& state) {
  // W application: (k x k) x (k x k) product as in the weight composition.
  const std::size_t k = std::size_t(state.range(0));
  Rng rng(4);
  std::vector<T> a(k * k), b(k * k), c(k * k);
  for (auto& v : a) v = T(rng.normal());
  for (auto& v : b) v = T(rng.normal());
  for (auto _ : state) {
    bda::scale::gemm<T>(k, k, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK_TEMPLATE(BM_EnsembleGemm, float)->Arg(128);
BENCHMARK_TEMPLATE(BM_EnsembleGemm, double)->Arg(128);

// ---------------------------------------------------------------------------
// Perturbation-storage ablation: fp32 / bf16 / fp16 storage, FP32 compute.

enum class Storage { kFp32, kBf16, kFp16 };

const char* storage_name(Storage s) {
  switch (s) {
    case Storage::kFp32: return "fp32";
    case Storage::kBf16: return "bf16";
    case Storage::kFp16: return "fp16";
  }
  return "?";
}

/// Round-trip one member's perturbation from the ensemble mean through the
/// storage format: s := mean + decode(encode(s - mean)), all fields.
/// Accumulates the squared quantization error and element count so the
/// caller can report the storage noise actually injected.
void storage_roundtrip(bda::scale::State& s, const bda::scale::State& mean,
                       Storage mode, double& err2, std::size_t& count) {
  using namespace bda;
  if (mode == Storage::kFp32) return;
  auto apply = [&](RField3D& f, const RField3D& fm) {
    auto v = f.raw();
    auto m = fm.raw();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const float p = v[i] - m[i];
      const float q =
          (mode == Storage::kBf16) ? util::bf16_decode(util::bf16_encode(p))
                                   : util::fp16_decode(util::fp16_encode(p));
      err2 += double(q - p) * double(q - p);
      ++count;
      v[i] = m[i] + q;
    }
  };
  apply(s.dens, mean.dens);
  apply(s.momx, mean.momx);
  apply(s.momy, mean.momy);
  apply(s.momz, mean.momz);
  apply(s.rhot, mean.rhot);
  for (int t = 0; t < bda::scale::kNumTracers; ++t)
    apply(s.rhoq[t], mean.rhoq[t]);
}

/// Twin experiment: a nature storm and a perturbed 4-member ensemble whose
/// initial perturbations pass through the given storage format exactly
/// once.  Skill = threat score of the ensemble-mean accumulated precip
/// against nature over the forecast window.
void run_storage_ablation() {
  using namespace bda;
  using namespace bda::scale;

  // The scaled-OSSE storm setup (bench common.hpp): moist bubble that
  // starts raining ~8 min in, so the forecast window sees active
  // precipitation whose placement is perturbation-sensitive.
  const Grid grid = Grid::stretched(20, 20, 10, 500.0f, 10000.0f, 250.0f,
                                    1.12f);
  ModelConfig cfg;
  cfg.dt = 0.6f;
  cfg.physics_every = 10;
  cfg.enable_rad = false;
  const real forecast_s = 600.0f;
  constexpr int kMembers = 4;

  // Nature: developing storm at analysis time, then the forecast window.
  Model nature(grid, convective_sounding(), cfg);
  add_thermal_bubble(nature.state(), grid, 6000, 6000, 1200, 3000, 1200,
                     4.0f);
  add_moisture_anomaly(nature.state(), grid, 6000, 6000, 1000, 4000, 1500,
                       0.002f);
  nature.advance(480.0f);
  const State analysis = nature.state();
  const RField2D precip0 = nature.microphysics().accumulated_precip();
  nature.advance(forecast_s);
  RField2D nature_rain = nature.microphysics().accumulated_precip();
  for (idx i = 0; i < grid.nx(); ++i)
    for (idx j = 0; j < grid.ny(); ++j) nature_rain(i, j) -= precip0(i, j);

  std::printf("\n-- 16-bit perturbation storage vs threat score --\n");
  std::printf("   %d members from a perturbed analysis, %.0f s forecast, "
              "FP32 compute throughout;\n", kMembers, double(forecast_s));
  std::printf("   storage round-trip applied to (member - mean) once at "
              "analysis time\n");
  std::printf("%-8s %14s %12s %12s %10s %14s %14s\n", "storage",
              "bytes/member", "TS >=0.5mm", "TS >=1 mm", "rain RMSE",
              "pert qerr RMS", "vs fp32 fcst");

  RField2D fp32_rain(grid.nx(), grid.ny());
  for (Storage mode :
       {Storage::kFp32, Storage::kBf16, Storage::kFp16}) {
    Ensemble ens(grid, convective_sounding(), cfg, kMembers);
    for (int m = 0; m < kMembers; ++m) ens.member(m) = analysis;
    PerturbationSpec spec;
    Rng rng(20210801u);  // identical perturbations for every storage mode
    ens.perturb(spec, rng);
    const State mean = ens.mean();
    std::size_t values = 0;
    double err2 = 0;
    std::size_t err_n = 0;
    for (int m = 0; m < kMembers; ++m) {
      storage_roundtrip(ens.member(m), mean, mode, err2, err_n);
      ens.member(m).fill_halos_periodic();
    }
    values = mean.dens.raw().size() + mean.momx.raw().size() +
             mean.momy.raw().size() + mean.momz.raw().size() +
             mean.rhot.raw().size();
    for (int t = 0; t < kNumTracers; ++t) values += mean.rhoq[t].raw().size();
    ens.advance(forecast_s);

    RField2D rain(grid.nx(), grid.ny());
    for (int m = 0; m < kMembers; ++m) {
      const RField2D& pm = ens.precip(m);
      for (idx i = 0; i < grid.nx(); ++i)
        for (idx j = 0; j < grid.ny(); ++j)
          rain(i, j) += pm(i, j) / real(kMembers);
    }
    if (mode == Storage::kFp32) fp32_rain = rain;
    const auto c1 = verify::contingency(rain, nature_rain, 0.5f);
    const auto c5 = verify::contingency(rain, nature_rain, 1.0f);
    const double bytes =
        double(values) * (mode == Storage::kFp32 ? 4.0 : 2.0);
    const double qerr = err_n ? std::sqrt(err2 / double(err_n)) : 0.0;
    std::printf("%-8s %14.0f %12.3f %12.3f %10.3f %14.2e %14.2e\n",
                storage_name(mode), bytes, c1.threat_score(),
                c5.threat_score(), verify::rmse(rain, nature_rain), qerr,
                verify::rmse(rain, fp32_rain));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  run_storage_ablation();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
