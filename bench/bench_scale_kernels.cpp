// SCALE kernel raw-speed bench: the production (SoA/SIMD) kernels vs the
// seed kernels kept as the test oracle, per kernel and end-to-end.
//
// Every kernel in src/scale carries a bitwise determinism contract: it must
// produce byte-identical prognostic state to the seed loops preserved in
// tests/support/scale_oracle.  This bench enforces the contract BEFORE any
// timing is reported — a single differing byte in any field fails the run
// with a nonzero exit — then times each kernel (dynamics, microphysics,
// turbulence, boundary layer) and the end-to-end ensemble advance on a
// mature convective storm at the Table 3 column geometry.
//
// Acceptance gate: end-to-end ensemble advance speedup >= 2.00x over the
// oracle kernels, the median of 5 timed passes per side.  Both sides split
// the members over the OpenMP team the same way, so the ratio compares
// kernels, not parallel layouts.  Below the gate the bench exits nonzero so
// CI fails.
//
// Output: human-readable table + BENCH_scale_kernels.json (path overridable
// as argv[1]) with scale.* timers and speedups, CI-archived.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <omp.h>

#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/ensemble.hpp"
#include "scale/microphysics.hpp"
#include "scale/model.hpp"
#include "scale/turbulence.hpp"
#include "scale_oracle.hpp"
#include "util/fpenv.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

using namespace bda;
using namespace bda::scale;

namespace {

constexpr int kMembers = 4;       // end-to-end ensemble size
constexpr real kAdvanceS = 12.0f; // end-to-end advance, seconds of model time
constexpr int kKernelReps = 20;   // per-kernel timing repetitions
constexpr int kEnsemblePasses = 5; // timed end-to-end passes per side

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Paper Table 3 column geometry at reduced horizontal extent (cost): 60
/// surface-refined levels, dz(0) = 80 m, dt = 0.4 s via the HEVI implicit
/// vertical solver.
Grid bench_grid() {
  return Grid::stretched(24, 24, 60, 500.0f, 16400.0f, 80.0f, 1.032f);
}

ModelConfig config() {
  ModelConfig cfg;
  cfg.dt = 0.4f;
  cfg.physics_every = 5;
  return cfg;
}

/// Mature convective storm: spun up with the oracle kernels so both sides
/// start from bit-identical initial conditions with active hydrometeors
/// (microphysics skip paths are exercised, not trivially hit).
State storm_state(const Grid& grid) {
  oracle::Model model(grid, convective_sounding(), config());
  add_thermal_bubble(model.state(), grid, 6000, 6000, 1200, 2500, 1000,
                     3.0f);
  for (int n = 0; n < 150; ++n) model.step();  // 60 s
  return model.state();
}

std::size_t field_mismatch(std::span<const real> a, std::span<const real> b) {
  if (a.size() != b.size()) return a.size() + b.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(real)) != 0) ++bad;
  return bad;
}

/// Bitwise comparison over every prognostic field (full allocation, halos
/// included).  Returns the number of differing 32-bit words.
std::size_t state_mismatch(const State& a, const State& b) {
  std::size_t bad = 0;
  bad += field_mismatch(a.dens.raw(), b.dens.raw());
  bad += field_mismatch(a.rhot.raw(), b.rhot.raw());
  bad += field_mismatch(a.momx.raw(), b.momx.raw());
  bad += field_mismatch(a.momy.raw(), b.momy.raw());
  bad += field_mismatch(a.momz.raw(), b.momz.raw());
  for (int t = 0; t < kNumTracers; ++t)
    bad += field_mismatch(a.rhoq[t].raw(), b.rhoq[t].raw());
  return bad;
}

struct KernelResult {
  const char* name;
  double ref_s, opt_s;
};

bool report_bitwise(const char* name, std::size_t bad) {
  if (bad != 0) {
    std::printf("FAIL [%s]: %zu words differ from the seed-kernel oracle "
                "(bitwise contract broken)\n",
                name, bad);
    return false;
  }
  return true;
}

/// Per-kernel ref-vs-opt: bitwise contract check on one step from the storm
/// state, then timed repetitions of `ref_step` (oracle) and `opt_step`
/// (production) over the same trajectory (they are bitwise identical, so
/// the work sequence is identical too).
template <typename RefStep, typename OptStep>
bool bench_kernel(const char* name, const State& base, RefStep ref_step,
                  OptStep opt_step, util::Metrics& metrics,
                  std::vector<KernelResult>& out) {
  // Contract check before any timing.
  State sr = base, so = base;
  ref_step(sr);
  opt_step(so);
  if (!report_bitwise(name, state_mismatch(sr, so))) return false;

  double ref_s = 0, opt_s = 0;
  {
    State s = base;
    const double t0 = now_s();
    for (int r = 0; r < kKernelReps; ++r) ref_step(s);
    ref_s = now_s() - t0;
  }
  {
    State s = base;
    const double t0 = now_s();
    for (int r = 0; r < kKernelReps; ++r) opt_step(s);
    opt_s = now_s() - t0;
  }
  metrics.observe(std::string("scale.kernel.") + name + ".ref_ms_per_step",
                  1e3 * ref_s / kKernelReps);
  metrics.observe(std::string("scale.kernel.") + name + ".opt_ms_per_step",
                  1e3 * opt_s / kKernelReps);
  metrics.observe(std::string("scale.kernel.") + name + ".speedup",
                  ref_s / opt_s);
  out.push_back({name, ref_s, opt_s});
  return true;
}

/// End-to-end: a kMembers-member ensemble advanced kAdvanceS seconds with
/// full physics and identical perturbations, by scale::Ensemble or one
/// oracle::Model per member.  Returns wall seconds; `snapshot` gets members.
double run_ensemble(bool oracle_kernels, std::vector<State>* snapshot) {
  const Grid grid = bench_grid();
  Ensemble ens(grid, convective_sounding(), config(), kMembers);
  PerturbationSpec spec;
  Rng rng(20210723u);  // same seed both sides -> identical members
  ens.perturb(spec, rng);
  for (int m = 0; m < ens.size(); ++m)
    add_thermal_bubble(ens.member(m), grid, 6000, 6000, 1200, 2500, 1000,
                       3.0f);
  std::vector<std::unique_ptr<oracle::Model>> ref;
  if (oracle_kernels)
    for (int m = 0; m < ens.size(); ++m) {
      ref.push_back(std::make_unique<oracle::Model>(
          grid, convective_sounding(), config()));
      ref.back()->state() = ens.member(m);
    }
  // The oracle members step in scale::Ensemble::advance's layout: one
  // contiguous member block per thread of the team, each block interleaved
  // step by step, the kernels' column loops on one-thread teams.
  const long nsteps = std::lround(kAdvanceS / config().dt);
  const int team = std::min(omp_get_max_threads(), kMembers);
  const double t0 = now_s();
  if (oracle_kernels) {
#pragma omp parallel num_threads(team)
    {
      omp_set_num_threads(1);
      const MemberBlock b =
          member_block(kMembers, omp_get_num_threads(), omp_get_thread_num());
      for (long n = 0; n < nsteps; ++n)
        for (int m = b.m0; m < b.m1; ++m) ref[std::size_t(m)]->step();
    }
  } else {
    ens.advance(kAdvanceS);
  }
  const double dt = now_s() - t0;
  if (snapshot) {
    snapshot->clear();
    for (int m = 0; m < ens.size(); ++m)
      snapshot->push_back(oracle_kernels ? ref[std::size_t(m)]->state()
                                         : ens.member(m));
  }
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_scale_kernels.json";

  // Production FP environment (util/fpenv.hpp): the paper's A64FX flushes
  // subnormals by default, and the subnormal tails hyperdiffusion leaves in
  // the tracer planes would otherwise dominate the timings with microcode
  // assists.  Applied on every thread; oracle and production run under it,
  // and the bitwise ref==opt checks below therefore verify the determinism
  // contract under this environment too.
  const bool ftz = util::enable_flush_to_zero();
#pragma omp parallel
  { util::enable_flush_to_zero(); }

  const Grid grid = bench_grid();
  std::printf("\n=====================================================\n");
  std::printf("SCALE kernels: SoA/SIMD production vs seed-kernel oracle\n");
  std::printf("  grid %lld x %lld x %lld (dx = %.0f m, dz0 = %.0f m), "
              "dt = 0.4 s\n",
              (long long)grid.nx(), (long long)grid.ny(),
              (long long)grid.nz(), double(grid.dx()), double(grid.dz(0)));
  std::printf("  bitwise contract checked before every timing; FTZ/DAZ %s\n",
              ftz ? "on (A64FX-like FP environment)" : "unsupported");
  std::printf("=====================================================\n");

  util::Metrics metrics;
  std::vector<KernelResult> results;

  std::printf("\nspinning up convective storm (60 s, oracle kernels)...\n");
  const State base = storm_state(grid);
  const auto ref = ReferenceState::build(grid, convective_sounding());
  const real dt = 0.4f;

  bool ok = true;
  {
    oracle::Dynamics ref_eng(grid, ref, DynParams{});
    Dynamics opt_eng(grid, ref, DynParams{});
    ok = ok && bench_kernel(
                   "dynamics", base, [&](State& s) { ref_eng.step(s, dt); },
                   [&](State& s) { opt_eng.step(s, dt); }, metrics, results);
  }
  {
    oracle::Microphysics ref_eng(grid);
    Microphysics opt_eng(grid);
    ok = ok && bench_kernel(
                   "microphysics", base, [&](State& s) { ref_eng.step(s, dt); },
                   [&](State& s) { opt_eng.step(s, dt); }, metrics, results);
  }
  {
    oracle::Turbulence ref_eng(grid);
    Turbulence opt_eng(grid);
    ok = ok && bench_kernel(
                   "turbulence", base, [&](State& s) { ref_eng.step(s, dt); },
                   [&](State& s) { opt_eng.step(s, dt); }, metrics, results);
  }
  {
    BoundaryLayer ref_eng(grid), opt_eng(grid);
    ok = ok && bench_kernel(
                   "boundary_layer", base,
                   [&](State& s) {
                     oracle::boundary_layer_step(grid, ref_eng, s, dt);
                   },
                   [&](State& s) { opt_eng.step(s, dt); }, metrics, results);
  }
  if (!ok) return 1;

  std::printf("\n%-16s %12s %12s %9s\n", "kernel", "ref[ms/st]", "opt[ms/st]",
              "speedup");
  for (const auto& r : results)
    std::printf("%-16s %12.3f %12.3f %8.2fx\n", r.name,
                1e3 * r.ref_s / kKernelReps, 1e3 * r.opt_s / kKernelReps,
                r.ref_s / r.opt_s);

  // End-to-end ensemble advance: bitwise end-state check, then the gate.
  std::printf("\nend-to-end: %d-member ensemble, %.0f s model time, full "
              "physics\n",
              kMembers, double(kAdvanceS));
  std::vector<State> end_ref, end_opt;
  run_ensemble(true, &end_ref);
  run_ensemble(false, &end_opt);
  for (int m = 0; m < kMembers; ++m) {
    const std::string name = "ensemble member " + std::to_string(m);
    if (!report_bitwise(name.c_str(),
                        state_mismatch(end_ref[std::size_t(m)],
                                       end_opt[std::size_t(m)])))
      return 1;
  }
  // Timed passes, the sides alternating (the checked pass above was the
  // warmup); the median of each side resists a descheduled pass.
  std::vector<double> ref_pass, opt_pass;
  for (int p = 0; p < kEnsemblePasses; ++p) {
    ref_pass.push_back(run_ensemble(true, nullptr));
    opt_pass.push_back(run_ensemble(false, nullptr));
  }
  const double ref_s = percentile(ref_pass, 50);
  const double opt_s = percentile(opt_pass, 50);
  const double speedup = ref_s / opt_s;
  metrics.observe("scale.ensemble.ref_s", ref_s);
  metrics.observe("scale.ensemble.opt_s", opt_s);
  metrics.observe("scale.ensemble.speedup", speedup);
  metrics.count("scale.ensemble.members", kMembers);
  metrics.count("scale.fpenv.ftz", ftz ? 1 : 0);

  std::printf("%-16s %12.3f %12.3f %8.2fx\n", "ensemble", ref_s, opt_s,
              speedup);
  std::printf("\nbitwise check: every kernel and all %d end-to-end members "
              "match the seed-kernel oracle\n", kMembers);
  const bool pass = speedup >= 2.0;
  std::printf("acceptance (ensemble advance >= 2.00x): %s\n",
              pass ? "PASS" : "FAIL");

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("metrics -> %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
