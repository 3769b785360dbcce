// Bitwise parity between the production SCALE kernels and the seed kernels
// kept as the test oracle (tests/support/scale_oracle), plus the regression
// tests for the bugs fixed in the raw-speed pass:
//   - turbulence halos were clamped unconditionally, breaking
//     shift-equivariance for periodic runs (TurbulencePeriodic test);
//   - sedimentation and boundary-layer column scratch was real[256] on the
//     stack, a silent smash for nz > 256 (TallColumn tests; fail under ASan
//     on the pre-fix code);
//   - State::total_mass/total_water are now bitwise thread-count invariant.
// The parity contract itself is documented in docs/SCALE_KERNELS.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "scale/boundary.hpp"
#include "scale/boundary_layer.hpp"
#include "scale/ensemble.hpp"
#include "scale/microphysics.hpp"
#include "scale/model.hpp"
#include "scale/turbulence.hpp"
#include "scale_oracle.hpp"

namespace bda::scale {
namespace {

void expect_field_bitwise(const RField3D& a, const RField3D& b,
                          const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  const auto ar = a.raw();
  const auto br = b.raw();
  const bool same =
      std::memcmp(ar.data(), br.data(), ar.size() * sizeof(real)) == 0;
  if (same) return;
  std::size_t n_diff = 0, first = 0;
  for (std::size_t n = 0; n < ar.size(); ++n)
    if (std::bit_cast<std::uint32_t>(ar[n]) !=
        std::bit_cast<std::uint32_t>(br[n])) {
      if (n_diff == 0) first = n;
      ++n_diff;
    }
  FAIL() << name << ": " << n_diff << " of " << ar.size()
         << " values differ (first at flat index " << first << ": "
         << ar[first] << " vs " << br[first] << ")";
}

void expect_state_bitwise(const State& a, const State& b) {
  expect_field_bitwise(a.dens, b.dens, "dens");
  expect_field_bitwise(a.momx, b.momx, "momx");
  expect_field_bitwise(a.momy, b.momy, "momy");
  expect_field_bitwise(a.momz, b.momz, "momz");
  expect_field_bitwise(a.rhot, b.rhot, "rhot");
  for (int t = 0; t < kNumTracers; ++t)
    expect_field_bitwise(a.rhoq[t], b.rhoq[t], tracer_name(t));
}

State storm_state(const Grid& g, const Sounding& snd) {
  const auto ref = ReferenceState::build(g, snd);
  State s(g);
  s.init_from_reference(g, ref);
  s.fill_halos_periodic();
  return s;
}

// Sprinkle hydrometeors over part of the domain so every microphysics branch
// (condensation, ice processes, warm rain, evaporation, sedimentation) has
// active cells AND exactly-zero cells — the zero-operand skips are the whole
// point of the optimized path.
void seed_hydrometeors(State& s) {
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k < s.nz; ++k) {
        if ((i + j) % 3 != 0) continue;  // leave clear-air columns
        const real dens = s.dens(i, j, k);
        if (k < 4) s.rhoq[QC](i, j, k) = dens * 1.5e-3f;
        if (k < 3) s.rhoq[QR](i, j, k) = dens * 0.8e-3f;
        if (k >= 5) s.rhoq[QI](i, j, k) = dens * 0.4e-3f;
        if (k >= 6) s.rhoq[QS](i, j, k) = dens * 0.5e-3f;
        if (k >= 7 && i % 2 == 0) s.rhoq[QG](i, j, k) = dens * 0.3e-3f;
        // Boost vapor toward saturation in the low levels.
        if (k < 5) s.rhoq[QV](i, j, k) *= 1.2f;
      }
  // Tiny negative and signed-zero inputs: the q = max(rhoq/dens, 0) clamps
  // and the pow/sqrt skips must reproduce IEEE signed-zero semantics.
  s.rhoq[QC](1, 0, 0) = -1e-12f;
  s.rhoq[QR](1, 0, 1) = -0.0f;
  s.rhoq[QI](1, 0, 5) = -0.0f;
  s.fill_halos_periodic();
}

// Sheared, horizontally varying winds (halos included): they lift the PBL
// TKE off its floor, so the boundary layer's shear terms matter.
void add_shear(State& s) {
  for (idx i = -Grid::kHalo; i < s.nx + Grid::kHalo; ++i)
    for (idx j = -Grid::kHalo; j < s.ny + Grid::kHalo; ++j)
      for (idx k = 0; k < s.nz; ++k) {
        s.momx(i, j, k) = s.dens(i, j, k) * real(3 * k + (i * 7 + j * 3) % 5);
        s.momy(i, j, k) = s.dens(i, j, k) * real(4 * (k % 3));
      }
}

// ---------------------------------------------------------------------------
// End-to-end: the full model cycle (dynamics + all physics) must be bitwise
// identical between production and the oracle.

TEST(KernelParity, ModelCycleBitwise) {
  Grid g(8, 8, 16, 500.0f, 8000.0f);
  Sounding snd = convective_sounding();
  ModelConfig cfg;
  cfg.physics_every = 2;  // exercise turb/pbl/sfc/rad several times
  Model opt(g, snd, cfg);
  oracle::Model ref(g, snd, cfg);
  add_thermal_bubble(opt.state(), g, 2000, 2000, 1500, 1200, 700, 2.0f);
  add_thermal_bubble(ref.state(), g, 2000, 2000, 1500, 1200, 700, 2.0f);
  seed_hydrometeors(opt.state());
  seed_hydrometeors(ref.state());
  for (int n = 0; n < 9; ++n) {
    opt.step();
    ref.step();
  }
  expect_state_bitwise(opt.state(), ref.state());
  // Precipitation accounting runs through sedimentation — must match too.
  const auto& pa = opt.microphysics().accumulated_precip();
  const auto& pb = ref.microphysics().accumulated_precip();
  for (idx i = 0; i < g.nx(); ++i)
    for (idx j = 0; j < g.ny(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(pa(i, j)),
                std::bit_cast<std::uint32_t>(pb(i, j)))
          << "accum_precip at (" << i << "," << j << ")";
}

// Smallest legal grid (nx = ny = 4 with kHalo = 2): every horizontal stencil
// tap lands in the halo, so this doubles as the over-read check when the
// suite runs under ASan.  Both lateral BCs; clamped halos run as in regional
// mode, with the Davies rim relaxing toward a steady environment.
TEST(KernelParity, EdgeGridBitwiseBothBcs) {
  for (LateralBc bc : {LateralBc::kPeriodic, LateralBc::kClamp}) {
    Grid g(4, 4, 12, 500.0f, 6000.0f);
    Sounding snd = convective_sounding();
    ModelConfig cfg;
    cfg.physics_every = 2;
    cfg.dyn.lateral_bc = bc;
    Model opt(g, snd, cfg);
    oracle::Model ref(g, snd, cfg);
    SteadyDriver env(g, opt.reference(), 6.0f, -3.0f);
    if (bc == LateralBc::kClamp) {
      opt.set_boundary(&env, 1, 20.0f);
      ref.set_boundary(&env, 1, 20.0f);
    }
    add_thermal_bubble(opt.state(), g, 1000, 1000, 1200, 800, 500, 2.0f);
    add_thermal_bubble(ref.state(), g, 1000, 1000, 1200, 800, 500, 2.0f);
    seed_hydrometeors(opt.state());
    seed_hydrometeors(ref.state());
    for (int n = 0; n < 6; ++n) {
      opt.step();
      ref.step();
    }
    expect_state_bitwise(opt.state(), ref.state());
  }
}

// ---------------------------------------------------------------------------
// Module-level parity (smaller surface per failure for diagnosis).

TEST(KernelParity, MicrophysicsBitwise) {
  Grid g(6, 6, 10, 500.0f, 6000.0f);
  State a = storm_state(g, convective_sounding());
  seed_hydrometeors(a);
  State b = a;
  Microphysics m_opt(g);
  oracle::Microphysics m_ref(g);
  for (int n = 0; n < 4; ++n) {
    m_opt.step(a, 2.0f);
    m_ref.step(b, 2.0f);
  }
  expect_state_bitwise(a, b);
  for (idx i = 0; i < g.nx(); ++i)
    for (idx j = 0; j < g.ny(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(
                    m_opt.accumulated_precip()(i, j)),
                std::bit_cast<std::uint32_t>(
                    m_ref.accumulated_precip()(i, j)));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(m_opt.last_rate()(i, j)),
                std::bit_cast<std::uint32_t>(m_ref.last_rate()(i, j)));
    }
}

TEST(KernelParity, TurbulenceBitwiseBothBcs) {
  for (LateralBc bc : {LateralBc::kPeriodic, LateralBc::kClamp}) {
    Grid g(8, 8, 12, 500.0f, 6000.0f);
    State a = storm_state(g, stable_sounding());
    for (idx i = -Grid::kHalo; i < a.nx + Grid::kHalo; ++i)
      for (idx j = -Grid::kHalo; j < a.ny + Grid::kHalo; ++j)
        for (idx k = 0; k < a.nz; ++k)
          a.momx(i, j, k) = a.dens(i, j, k) * 8.0f *
                            real((j % 2 == 0) ? 1 : -1);
    State b = a;
    Turbulence t_opt(g, {}, bc);
    oracle::Turbulence t_ref(g, {}, bc);
    for (int n = 0; n < 3; ++n) {
      t_opt.step(a, 2.0f);
      t_ref.step(b, 2.0f);
    }
    expect_state_bitwise(a, b);
    expect_field_bitwise(t_opt.k_m(), t_ref.k_m(), "k_m");
  }
}

TEST(KernelParity, BoundaryLayerBitwise) {
  Grid g(6, 6, 14, 500.0f, 7000.0f);
  State a = storm_state(g, convective_sounding());
  for (idx i = -Grid::kHalo; i < a.nx + Grid::kHalo; ++i)
    for (idx j = -Grid::kHalo; j < a.ny + Grid::kHalo; ++j)
      for (idx k = 0; k < a.nz; ++k)
        a.momx(i, j, k) = a.dens(i, j, k) * real(3 + k);
  State b = a;
  BoundaryLayer p_opt(g);
  BoundaryLayer p_ref(g);
  for (idx i = 0; i < g.nx(); ++i)
    for (idx j = 0; j < g.ny(); ++j) {
      p_opt.add_surface_production(i, j, 0.05f);
      p_ref.add_surface_production(i, j, 0.05f);
    }
  for (int n = 0; n < 4; ++n) {
    p_opt.step(a, 2.0f);
    oracle::boundary_layer_step(g, p_ref, b, 2.0f);
  }
  expect_state_bitwise(a, b);
  expect_field_bitwise(p_opt.tke(), p_ref.tke(), "tke");
}

// ---------------------------------------------------------------------------
// Bugfix regressions.

// Pre-PR-10 the turbulence scheme clamped halos unconditionally, so a
// periodic run was not shift-equivariant: translating the initial condition
// and translating the result disagreed near the boundary.  With the lateral
// BC plumbed through (Model/Ensemble pass the dynamics BC), stepping must
// commute with periodic translation bitwise.
TEST(TurbulencePeriodic, StepCommutesWithTranslation) {
  Grid g(8, 8, 10, 500.0f, 5000.0f);
  const idx di = 3, dj = 5;
  State a = storm_state(g, stable_sounding());
  // Localized feature so the halo treatment matters.
  for (idx k = 0; k < a.nz; ++k) {
    a.momx(1, 2, k) = a.dens(1, 2, k) * 9.0f;
    a.momy(2, 1, k) = a.dens(2, 1, k) * -7.0f;
    a.rhot(1, 1, k) *= 1.01f;
  }
  a.fill_halos_periodic();

  auto shift = [&](const State& src) {
    State dst(g);
    auto wrap = [](idx v, idx n) { return (v % n + n) % n; };
    for (idx i = 0; i < src.nx; ++i)
      for (idx j = 0; j < src.ny; ++j) {
        const idx si = wrap(i - di, src.nx), sj = wrap(j - dj, src.ny);
        for (idx k = 0; k < src.nz; ++k) {
          dst.dens(i, j, k) = src.dens(si, sj, k);
          dst.momx(i, j, k) = src.momx(si, sj, k);
          dst.momy(i, j, k) = src.momy(si, sj, k);
          dst.rhot(i, j, k) = src.rhot(si, sj, k);
          for (int t = 0; t < kNumTracers; ++t)
            dst.rhoq[t](i, j, k) = src.rhoq[t](si, sj, k);
        }
        for (idx k = 0; k <= src.nz; ++k)
          dst.momz(i, j, k) = src.momz(si, sj, k);
      }
    dst.fill_halos_periodic();
    return dst;
  };

  State b = shift(a);
  Turbulence ta(g, {}, LateralBc::kPeriodic);
  Turbulence tb(g, {}, LateralBc::kPeriodic);
  ta.step(a, 2.0f);
  tb.step(b, 2.0f);
  // The step leaves halos stale (they were filled from the pre-step
  // interior); refresh both sides so the comparison covers the full
  // allocation without a stale-halo artifact.
  b.fill_halos_periodic();
  State a_shifted = shift(a);
  expect_state_bitwise(a_shifted, b);
}

// nz = 300 > 256: the seed's fixed-size column scratch (real[256] terminal
// velocities / tridiagonal rows) smashed the stack here.  Production and
// oracle now use heap scratch; under the asan-ubsan preset the pre-fix code
// aborts.
TEST(TallColumn, SedimentationNz300BothPaths) {
  Grid g(2, 2, 300, 500.0f, 15000.0f);
  State a = storm_state(g, convective_sounding());
  for (idx k = 0; k < a.nz; ++k) {
    a.rhoq[QR](0, 0, k) = a.dens(0, 0, k) * 1e-3f;
    a.rhoq[QG](1, 1, k) = a.dens(1, 1, k) * 5e-4f;
  }
  State b = a;
  Microphysics m_opt(g);
  oracle::Microphysics m_ref(g);
  m_opt.sediment_only(a, 2.0f);
  m_ref.sediment_only(b, 2.0f);
  expect_state_bitwise(a, b);
  EXPECT_FALSE(a.has_nonfinite());
}

TEST(TallColumn, BoundaryLayerNz300BothPaths) {
  Grid g(2, 2, 300, 500.0f, 15000.0f);
  State a = storm_state(g, convective_sounding());
  for (idx i = -Grid::kHalo; i < a.nx + Grid::kHalo; ++i)
    for (idx j = -Grid::kHalo; j < a.ny + Grid::kHalo; ++j)
      for (idx k = 0; k < a.nz; ++k)
        a.momx(i, j, k) = a.dens(i, j, k) * 2.0f;
  State b = a;
  BoundaryLayer p_opt(g);
  BoundaryLayer p_ref(g);
  p_opt.step(a, 2.0f);
  oracle::boundary_layer_step(g, p_ref, b, 2.0f);
  expect_state_bitwise(a, b);
  EXPECT_FALSE(a.has_nonfinite());
}

// ---------------------------------------------------------------------------
// Deterministic reductions: the conservation sums must not depend on the
// OpenMP thread count (fixed-slot column partials + fixed-shape pairwise
// combine — never an omp reduction clause).

#ifdef _OPENMP
TEST(StateSums, BitwiseInvariantAcrossThreadCounts) {
  Grid g(16, 12, 20, 500.0f, 10000.0f);
  State s = storm_state(g, convective_sounding());
  seed_hydrometeors(s);
  add_thermal_bubble(s, g, 3000, 2500, 1500, 1200, 700, 2.0f);

  const int save = omp_get_max_threads();
  double mass[3], water[3];
  const int counts[3] = {1, 2, 8};
  for (int c = 0; c < 3; ++c) {
    omp_set_num_threads(counts[c]);
    mass[c] = s.total_mass();
    water[c] = s.total_water();
  }
  omp_set_num_threads(save);
  for (int c = 1; c < 3; ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mass[0]),
              std::bit_cast<std::uint64_t>(mass[c]))
        << "total_mass with " << counts[c] << " threads";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(water[0]),
              std::bit_cast<std::uint64_t>(water[c]))
        << "total_water with " << counts[c] << " threads";
  }
}

// A whole Model::step must not depend on the OpenMP team size either.  On
// the 4x4 edge grid most columns sit next to one another thread owns;
// this caught the surface drag reading neighbour momx/momy while other
// iterations rescaled them (docs/ANALYSIS.md: races inside OpenMP loop
// bodies are invisible to TSan, so this test is their gate).
TEST(ModelStep, BitwiseInvariantAcrossThreadCounts) {
  const int save = omp_get_max_threads();
  for (LateralBc bc : {LateralBc::kPeriodic, LateralBc::kClamp}) {
    Grid g(4, 4, 12, 500.0f, 6000.0f);
    Sounding snd = convective_sounding();
    ModelConfig cfg;
    cfg.physics_every = 2;
    cfg.dyn.lateral_bc = bc;
    auto run = [&](int threads) {
      omp_set_num_threads(threads);
      Model m(g, snd, cfg);
      add_thermal_bubble(m.state(), g, 1000, 1000, 1200, 800, 500, 2.0f);
      seed_hydrometeors(m.state());
      for (int n = 0; n < 6; ++n) m.step();
      return m.state();
    };
    const State one = run(1);
    for (int threads : {2, 3, 4}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      expect_state_bitwise(one, run(threads));
    }
  }
  omp_set_num_threads(save);
}
// An idle team runs in near lockstep, so a column reading a face its
// neighbour rewrites in the same `omp for` almost always reads first and
// thread-count tests pass.  Preemption breaks the lockstep: R copies of one
// run share the cores, each on an nproc-wide team, and each must equal a
// solo run.  Sheared, varying winds lift the TKE off its floor so the PBL
// shear matters; this caught the PBL reading momx/momy its neighbour mixed.
TEST(ModelStep, BitwiseUnderOversubscription) {
  const int save = omp_get_max_threads();
  const int nproc = omp_get_num_procs();
  const Grid g = Grid::stretched(8, 8, 12, 500.0f, 8000.0f, 80.0f, 1.15f);
  Sounding snd = convective_sounding();
  ModelConfig cfg;
  cfg.physics_every = 1;
  auto run = [&] {
    omp_set_num_threads(nproc);
    Model m(g, snd, cfg);
    add_thermal_bubble(m.state(), g, 2000, 2000, 1200, 1500, 700, 2.0f);
    seed_hydrometeors(m.state());
    add_shear(m.state());
    for (int n = 0; n < 60; ++n) m.step();
    return m.state();
  };
  const State solo = run();
  std::vector<State> copies(3);
  std::vector<std::thread> threads;
  for (State& copy : copies) threads.emplace_back([&] { copy = run(); });
  for (auto& t : threads) t.join();
  omp_set_num_threads(save);
  for (const State& copy : copies) expect_state_bitwise(solo, copy);
}

// Ensemble::advance steps contiguous member blocks concurrently, one pool
// EngineSet per thread of the team.  The result must not depend on the
// split.  The run has micro, PBL and surface on, a time-dependent Davies
// rim (its target refreshes every second, so each block's clock copy
// matters) and one advance per entry of `teams` (the pool is resized to
// each team and the clock committed).
struct EnsembleRun {
  std::vector<State> members;
  double time = 0;
};

EnsembleRun advance_ensemble(int members, const std::vector<int>& teams,
                             LateralBc bc) {
  const Grid g = Grid::stretched(8, 8, 12, 500.0f, 8000.0f, 80.0f, 1.15f);
  ModelConfig cfg;
  cfg.physics_every = 2;
  cfg.dyn.lateral_bc = bc;
  Ensemble ens(g, convective_sounding(), cfg, members);
  const SyntheticMesoscaleDriver rim(ens.grid(), ens.reference(), 4.0f,
                                     -2.0f, 1.0);
  ens.set_boundary(&rim, 2, 20.0f);
  Rng rng(17);
  ens.perturb({}, rng);
  for (int m = 0; m < members; ++m) {
    add_thermal_bubble(ens.member(m), g, 2000, 2000, 1200, 1500, 700, 2.0f);
    seed_hydrometeors(ens.member(m));
    add_shear(ens.member(m));
  }
  for (int team : teams) {
    omp_set_num_threads(team);
    ens.advance(2.4f);
  }
  EnsembleRun run;
  for (int m = 0; m < members; ++m) run.members.push_back(ens.member(m));
  run.time = ens.time();
  return run;
}

void expect_runs_bitwise(const EnsembleRun& a, const EnsembleRun& b) {
  ASSERT_EQ(a.members.size(), b.members.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time),
            std::bit_cast<std::uint64_t>(b.time));
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    SCOPED_TRACE(testing::Message() << "member " << m);
    expect_state_bitwise(a.members[m], b.members[m]);
  }
}

TEST(EnsembleAdvance, BitwiseAcrossTeamsAndBlocks) {
  const int save = omp_get_max_threads();
  const int nproc = omp_get_num_procs();
  for (LateralBc bc : {LateralBc::kPeriodic, LateralBc::kClamp})
    for (int members : {1, 3, 8}) {
      const EnsembleRun one = advance_ensemble(members, {1, 1}, bc);
      for (int team : {2, 3, nproc}) {
        SCOPED_TRACE(testing::Message()
                     << members << " members, team " << team << ", "
                     << (bc == LateralBc::kPeriodic ? "periodic" : "clamp"));
        expect_runs_bitwise(one, advance_ensemble(members, {team, team}, bc));
      }
    }
  // One ensemble on a changing team: the pool shrinks, regrows and gives
  // the new sets their rim scratch, and every advance stays bitwise.
  expect_runs_bitwise(
      advance_ensemble(8, {1, 1, 1, 1}, LateralBc::kClamp),
      advance_ensemble(8, {3, 2, 1, nproc}, LateralBc::kClamp));
  omp_set_num_threads(save);
}

// Three ensembles advancing at once, each on an nproc-wide team (at most
// 3 x nproc threads), must each equal a solo run: preempted blocks must not
// share engine scratch or the rim target.
TEST(EnsembleAdvance, BitwiseUnderOversubscription) {
  const int save = omp_get_max_threads();
  const int nproc = omp_get_num_procs();
  const EnsembleRun solo =
      advance_ensemble(8, {nproc, nproc}, LateralBc::kClamp);
  std::vector<EnsembleRun> copies(3);
  std::vector<std::thread> threads;
  for (EnsembleRun& copy : copies)
    threads.emplace_back([&] {
      copy = advance_ensemble(8, {nproc, nproc}, LateralBc::kClamp);
    });
  for (auto& t : threads) t.join();
  omp_set_num_threads(save);
  for (const EnsembleRun& copy : copies) expect_runs_bitwise(solo, copy);
}
#endif

}  // namespace
}  // namespace bda::scale
