#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "scale/dynamics.hpp"
#include "scale/model.hpp"

namespace bda::scale {
namespace {

Grid test_grid() {
  return Grid::stretched(16, 16, 16, 500.0f, 12000.0f, 150.0f, 1.08f);
}

DynParams dyn_only() {
  DynParams p;
  p.lateral_bc = LateralBc::kPeriodic;
  return p;
}

real max_abs_momz(const State& s) {
  real m = 0;
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k <= s.nz; ++k)
        m = std::max(m, std::abs(s.momz(i, j, k)));
  return m;
}

TEST(Dynamics, RestingReferenceStaysExactlyAtRest) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  Dynamics dyn(g, ref, dyn_only());
  for (int n = 0; n < 20; ++n) dyn.step(s, 0.5f);
  EXPECT_EQ(max_abs_momz(s), 0.0f);
  real umax = 0;
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k < s.nz; ++k)
        umax = std::max(umax, std::abs(s.momx(i, j, k)));
  EXPECT_EQ(umax, 0.0f);
}

// On the stretched grid the conserved quantity is the volume integral, i.e.
// the dz-weighted sum (horizontal cells are uniform).
double weighted_sum(const RField3D& f, const Grid& g) {
  double s = 0;
  for (idx i = 0; i < f.nx(); ++i)
    for (idx j = 0; j < f.ny(); ++j)
      for (idx k = 0; k < f.nz(); ++k)
        s += double(f(i, j, k)) * double(g.dz(k));
  return s;
}

TEST(Dynamics, MassExactlyConservedPeriodic) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 4000, 4000, 1500, 1500, 800, 2.0f);
  Dynamics dyn(g, ref, dyn_only());
  const double m0 = weighted_sum(s.dens, g);
  for (int n = 0; n < 40; ++n) dyn.step(s, 0.5f);
  const double m1 = weighted_sum(s.dens, g);
  EXPECT_NEAR(m1 / m0, 1.0, 5e-6);  // float round-off only
}

TEST(Dynamics, TracerMassConservedPeriodic) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, convective_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 4000, 4000, 1500, 1500, 800, 2.0f);
  Dynamics dyn(g, ref, dyn_only());
  const double w0 = weighted_sum(s.rhoq[QV], g);
  for (int n = 0; n < 40; ++n) dyn.step(s, 0.5f);
  EXPECT_NEAR(weighted_sum(s.rhoq[QV], g) / w0, 1.0, 2e-5);
}

TEST(Dynamics, WarmBubbleRises) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 4000, 4000, 1000, 1200, 600, 2.0f);
  Dynamics dyn(g, ref, dyn_only());
  for (int n = 0; n < 120; ++n) dyn.step(s, 0.5f);
  // Updraft develops above the bubble center.
  real wmax = 0;
  for (idx k = 1; k < s.nz; ++k)
    wmax = std::max(wmax, s.momz(8, 8, k));
  EXPECT_GT(wmax, 0.1f);
  EXPECT_FALSE(s.has_nonfinite());
}

TEST(Dynamics, ColdBubbleSinks) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 4000, 4000, 2500, 1200, 600, -2.0f);
  Dynamics dyn(g, ref, dyn_only());
  for (int n = 0; n < 120; ++n) dyn.step(s, 0.5f);
  real wmin = 0;
  for (idx k = 1; k < s.nz; ++k) wmin = std::min(wmin, s.momz(8, 8, k));
  EXPECT_LT(wmin, -0.1f);
}

TEST(Dynamics, UniformWindAdvectsBubblePeriodically) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  // Passive tracer blob + uniform 10 m/s zonal wind.
  for (idx i = 6; i < 10; ++i)
    for (idx j = 6; j < 10; ++j)
      for (idx k = 2; k < 6; ++k) s.rhoq[QR](i, j, k) = 1e-3f;
  for (idx i = -Grid::kHalo; i < s.nx + Grid::kHalo; ++i)
    for (idx j = -Grid::kHalo; j < s.ny + Grid::kHalo; ++j)
      for (idx k = 0; k < s.nz; ++k)
        s.momx(i, j, k) = s.dens(i, j, k) * 10.0f;
  Dynamics dyn(g, ref, dyn_only());
  // Advect one full domain length: 16 cells * 500 m / 10 m/s = 800 s.
  // (Use 160 steps of 0.5 s = 80 s = 1.6 cells for cost; check the blob
  // center-of-mass moved by ~1.6 cells.)
  auto center_x = [&] {
    double sum = 0, wsum = 0;
    for (idx i = 0; i < s.nx; ++i)
      for (idx j = 0; j < s.ny; ++j)
        for (idx k = 0; k < s.nz; ++k) {
          sum += double(s.rhoq[QR](i, j, k)) * double(i);
          wsum += double(s.rhoq[QR](i, j, k));
        }
    return sum / wsum;
  };
  const double x0 = center_x();
  for (int n = 0; n < 160; ++n) dyn.step(s, 0.5f);
  const double x1 = center_x();
  EXPECT_NEAR(x1 - x0, 1.6, 0.25);
  EXPECT_FALSE(s.has_nonfinite());
}

TEST(Dynamics, StableAtPaperTimeStepRatio) {
  // Table 3: dt = 0.4 s at dx = 500 m with ~80-m lowest layers; the HEVI
  // core must integrate a disturbed state stably.
  Grid g = Grid::stretched(12, 12, 24, 500.0f, 16400.0f, 80.0f, 1.06f);
  const auto ref = ReferenceState::build(g, convective_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 3000, 3000, 1200, 1500, 900, 3.0f);
  Dynamics dyn(g, ref, dyn_only());
  for (int n = 0; n < 250; ++n) dyn.step(s, 0.4f);  // 100 s
  EXPECT_FALSE(s.has_nonfinite());
  // Vertical acoustic CFL was > 1 (cs*dt/dz ~ 340*0.4/80 = 1.7): an explicit
  // scheme would have blown up; reaching here is the HEVI point.
  EXPECT_LT(std::abs(s.theta(6, 6, 12) - ref.theta[12]), 20.0f);
}

TEST(Dynamics, VerticalImplicitMatchesTendencyContract) {
  // With zero tendencies and the reference state, the implicit solve must
  // return the state unchanged (x = 0 fixed point).
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  s.fill_halos_periodic();
  Dynamics dyn(g, ref, dyn_only());
  Tendencies tend(g);
  State out(g);
  dyn.compute_tendencies(s, tend, 0.5f);  // also fills derived fields
  // Zero out tendencies to isolate the solver.
  tend.dens.fill(0);
  tend.rhot.fill(0);
  tend.momx.fill(0);
  tend.momy.fill(0);
  tend.momz.fill(0);
  for (auto& q : tend.rhoq) q.fill(0);
  dyn.vertical_implicit(s, s, tend, 0.5f, out);
  for (idx k = 0; k <= s.nz; ++k) EXPECT_EQ(out.momz(8, 8, k), 0.0f);
  for (idx k = 0; k < s.nz; ++k) {
    EXPECT_FLOAT_EQ(out.dens(8, 8, k), s.dens(8, 8, k));
    EXPECT_FLOAT_EQ(out.rhot(8, 8, k), s.rhot(8, 8, k));
  }
}

bool fields_bitwise_equal(const RField3D& a, const RField3D& b) {
  const auto ar = a.raw();
  const auto br = b.raw();
  return ar.size() == br.size() &&
         std::memcmp(ar.data(), br.data(), ar.size() * sizeof(real)) == 0;
}

// Dynamics::step updates its one RK scratch in place from the second stage
// on, so vertical_implicit(s0, x, tend, dts, x) must write exactly what it
// writes to a distinct `out` (the alias contract in dynamics.hpp).
TEST(Dynamics, VerticalImplicitInPlaceBitwise) {
  for (LateralBc bc : {LateralBc::kPeriodic, LateralBc::kClamp}) {
    SCOPED_TRACE(bc == LateralBc::kPeriodic ? "periodic" : "clamp");
    Grid g = test_grid();
    const auto ref = ReferenceState::build(g, convective_sounding());
    DynParams p = dyn_only();
    p.lateral_bc = bc;
    Dynamics dyn(g, ref, p);
    auto fill = [bc](State& s) {
      if (bc == LateralBc::kPeriodic)
        s.fill_halos_periodic();
      else
        s.fill_halos_clamp();
    };
    State s0(g);
    s0.init_from_reference(g, ref);
    add_thermal_bubble(s0, g, 3000, 4000, 1500, 1500, 800, 2.0f);
    add_moisture_anomaly(s0, g, 5000, 3000, 1000, 2000, 800, 0.1f);
    for (idx i = 0; i < s0.nx; ++i)
      for (idx j = 0; j < s0.ny; ++j)
        for (idx k = 0; k < s0.nz; ++k)
          s0.momx(i, j, k) = s0.dens(i, j, k) * real(2 + (i + 2 * j) % 3);
    fill(s0);
    // A stage input distinct from the base state, as in RK stages 2 and 3.
    State x = s0;
    for (int n = 0; n < 3; ++n) dyn.step(x, 0.4f);
    fill(x);
    Tendencies tend(g);
    dyn.compute_tendencies(x, tend, 0.4f);  // also fills derived fields

    State out = x;  // same halos as the in-place result
    dyn.vertical_implicit(s0, x, tend, 0.2f, out);
    State y = x;
    dyn.vertical_implicit(s0, y, tend, 0.2f, y);

    EXPECT_FALSE(fields_bitwise_equal(out.rhot, x.rhot));  // it did update
    EXPECT_TRUE(fields_bitwise_equal(out.dens, y.dens));
    EXPECT_TRUE(fields_bitwise_equal(out.momx, y.momx));
    EXPECT_TRUE(fields_bitwise_equal(out.momy, y.momy));
    EXPECT_TRUE(fields_bitwise_equal(out.momz, y.momz));
    EXPECT_TRUE(fields_bitwise_equal(out.rhot, y.rhot));
    for (int t = 0; t < kNumTracers; ++t)
      EXPECT_TRUE(fields_bitwise_equal(out.rhoq[t], y.rhoq[t]))
          << tracer_name(t);
  }
}

TEST(Dynamics, RungeKutta3MoreAccurateThanEuler) {
  // Advect a blob with RK1 vs RK3 at the same dt; RK3 with upwind-3 should
  // lose less peak amplitude.
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  auto run = [&](int stages) {
    State s(g);
    s.init_from_reference(g, ref);
    for (idx i = 6; i < 10; ++i)
      for (idx j = 6; j < 10; ++j)
        for (idx k = 2; k < 6; ++k) s.rhoq[QR](i, j, k) = 1e-3f;
    for (idx i = -Grid::kHalo; i < s.nx + Grid::kHalo; ++i)
      for (idx j = -Grid::kHalo; j < s.ny + Grid::kHalo; ++j)
        for (idx k = 0; k < s.nz; ++k)
          s.momx(i, j, k) = s.dens(i, j, k) * 10.0f;
    DynParams p = dyn_only();
    p.rk_stages = stages;
    Dynamics dyn(g, ref, p);
    for (int n = 0; n < 100; ++n) dyn.step(s, 0.5f);
    return s.rhoq[QR].interior_max();
  };
  const real peak_rk3 = run(3);
  const real peak_rk1 = run(1);
  EXPECT_GE(peak_rk3, peak_rk1 * 0.99f);
  EXPECT_GT(peak_rk3, 2e-4f);  // blob survived
}

TEST(Dynamics, SpongeDampsTopLevels) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  // Kick w near the top, inside the sponge.
  const idx ktop = s.nz - 2;
  s.momz(8, 8, ktop) = 1.0f;
  s.fill_halos_periodic();
  DynParams p = dyn_only();
  p.sponge_depth = 4000.0f;
  p.sponge_tau = 30.0f;
  Dynamics dyn(g, ref, p);
  const real w0 = std::abs(s.momz(8, 8, ktop));
  for (int n = 0; n < 60; ++n) dyn.step(s, 0.5f);
  EXPECT_LT(max_abs_momz(s), w0);  // energy removed, not amplified
  EXPECT_FALSE(s.has_nonfinite());
}

TEST(ThermalBubble, PerturbsThetaLocally) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, stable_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  add_thermal_bubble(s, g, 4000, 4000, 1000, 1000, 500, 2.0f);
  // The cell nearest the bubble center gets the exact Gaussian amplitude.
  idx ic = 7, jc = 7;  // xc(7)=3750 close to 4000
  // Find the level whose center is nearest z0 = 1000 m.
  idx kc = 0;
  for (idx k = 1; k < g.nz(); ++k)
    if (std::abs(g.zc(k) - 1000.0f) < std::abs(g.zc(kc) - 1000.0f)) kc = k;
  const real dxr = (g.xc(ic) - 4000.0f) / 1000.0f;
  const real dyr = (g.yc(jc) - 4000.0f) / 1000.0f;
  const real dzr = (g.zc(kc) - 1000.0f) / 500.0f;
  const real expected =
      2.0f * std::exp(-(dxr * dxr + dyr * dyr + dzr * dzr));
  const real dth_center = s.theta(ic, jc, kc) - ref.theta[kc];
  EXPECT_NEAR(dth_center, expected, 0.02f);
  EXPECT_GT(dth_center, 0.3f);
  EXPECT_FLOAT_EQ(s.theta(15, 15, 10), ref.theta[10]);
}

TEST(MoistureAnomaly, AddsVaporMassConsistently) {
  Grid g = test_grid();
  const auto ref = ReferenceState::build(g, convective_sounding());
  State s(g);
  s.init_from_reference(g, ref);
  const double qv0 = s.rhoq[QV].interior_sum();
  const double m0 = s.total_mass();
  const real th_before = s.theta(8, 8, 2);
  add_moisture_anomaly(s, g, 4000, 4000, 800, 1500, 600, 0.003f);
  EXPECT_GT(s.rhoq[QV].interior_sum(), qv0);
  // Total mass grew by exactly the added vapor.
  EXPECT_NEAR(s.total_mass() - m0, s.rhoq[QV].interior_sum() - qv0, 1e-2);
  // Theta unchanged where perturbed.
  EXPECT_NEAR(s.theta(8, 8, 2), th_before, 0.01f);
}

}  // namespace
}  // namespace bda::scale
