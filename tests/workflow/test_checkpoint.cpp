#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/rng.hpp"
#include "workflow/checkpoint.hpp"

namespace bda::workflow {
namespace {

namespace fs = std::filesystem;
using scale::Grid;

Grid cgrid() { return Grid(8, 8, 6, 500.0f, 6000.0f); }

scale::ModelConfig light() {
  scale::ModelConfig cfg;
  cfg.dt = 0.5f;
  cfg.enable_turb = cfg.enable_pbl = cfg.enable_sfc = cfg.enable_rad = false;
  return cfg;
}

TEST(Checkpoint, StateRoundtripIsExact) {
  Grid g = cgrid();
  const auto ref =
      scale::ReferenceState::build(g, scale::convective_sounding());
  scale::State s(g);
  s.init_from_reference(g, ref);
  Rng rng(5);
  for (idx i = 0; i < 8; ++i)
    for (idx j = 0; j < 8; ++j)
      for (idx k = 0; k < 6; ++k) {
        s.momx(i, j, k) = real(rng.normal());
        s.momz(i, j, k) = real(rng.normal());
        s.rhoq[scale::QR](i, j, k) = real(rng.uniform(0, 1e-3));
      }
  const auto path =
      (fs::temp_directory_path() / "bda_ckpt_state.bdf").string();
  save_state(path, s);

  scale::State back(g);
  load_state(path, back);
  for (idx i = 0; i < 8; ++i)
    for (idx j = 0; j < 8; ++j)
      for (idx k = 0; k < 6; ++k) {
        EXPECT_EQ(back.dens(i, j, k), s.dens(i, j, k));
        EXPECT_EQ(back.momx(i, j, k), s.momx(i, j, k));
        EXPECT_EQ(back.momz(i, j, k), s.momz(i, j, k));
        EXPECT_EQ(back.rhot(i, j, k), s.rhot(i, j, k));
        EXPECT_EQ(back.rhoq[scale::QR](i, j, k), s.rhoq[scale::QR](i, j, k));
      }
  // Top momz face level too (nz + 1 levels).
  EXPECT_EQ(back.momz(3, 3, 6), s.momz(3, 3, 6));
  fs::remove(path);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  Grid g = cgrid();
  scale::State s(g);
  const auto path =
      (fs::temp_directory_path() / "bda_ckpt_mismatch.bdf").string();
  save_state(path, s);
  Grid other(8, 8, 5, 500.0f, 5000.0f);
  scale::State wrong(other);
  EXPECT_THROW(load_state(path, wrong), std::runtime_error);
  fs::remove(path);
}

TEST(Checkpoint, EnsembleRoundtripRestoresMembersAndTime) {
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 3);
  Rng rng(6);
  ens.perturb({}, rng);
  ens.advance(2.0f);
  const real probe = ens.member(2).rhot(4, 4, 2);
  const auto dir = (fs::temp_directory_path() / "bda_ckpt_ens").string();
  fs::remove_all(dir);
  save_ensemble(dir, ens);

  scale::Ensemble fresh(g, scale::convective_sounding(), light(), 3);
  EXPECT_NE(fresh.member(2).rhot(4, 4, 2), probe);
  load_ensemble(dir, fresh);
  EXPECT_EQ(fresh.member(2).rhot(4, 4, 2), probe);
  EXPECT_DOUBLE_EQ(fresh.time(), ens.time());
  fs::remove_all(dir);
}

// The manifest clock must survive a month run: after 2,500,075 steps of
// dt = 0.4 s (t = 1,000,030 s, day 11.6) the default 6-significant-digit
// stream wrote "1.00003e+06" and the reloaded clock lost the fraction.
TEST(Checkpoint, EnsembleTimeRoundtripsAtMonthScale) {
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 2);
  double t = 0;
  for (long n = 0; n < 2500075; ++n) t += double(0.4f);  // Ensemble's clock
  ASSERT_GT(t, 1000030.0);
  ens.set_time(t);
  const auto dir = (fs::temp_directory_path() / "bda_ckpt_month").string();
  fs::remove_all(dir);
  save_ensemble(dir, ens);

  scale::Ensemble fresh(g, scale::convective_sounding(), light(), 2);
  load_ensemble(dir, fresh);
  EXPECT_EQ(fresh.time(), t);
  fs::remove_all(dir);
}

TEST(Checkpoint, EnsembleSizeMismatchRejected) {
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 3);
  const auto dir = (fs::temp_directory_path() / "bda_ckpt_size").string();
  fs::remove_all(dir);
  save_ensemble(dir, ens);
  scale::Ensemble bigger(g, scale::convective_sounding(), light(), 5);
  EXPECT_THROW(load_ensemble(dir, bigger), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Checkpoint, MissingManifestRejected) {
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 2);
  EXPECT_THROW(load_ensemble("/nonexistent/ckpt", ens), std::runtime_error);
}

// A manifest cut off after its `members` line (or carrying a clock that
// does not parse) must not load as a checkpoint taken at t = 0.
TEST(Checkpoint, ManifestMissingTimeRejected) {
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 2);
  ens.set_time(42.0);
  const auto dir = (fs::temp_directory_path() / "bda_ckpt_cut").string();
  fs::remove_all(dir);
  save_ensemble(dir, ens);
  const auto manifest = dir + "/manifest.txt";

  scale::Ensemble fresh(g, scale::convective_sounding(), light(), 2);
  for (const char* body :
       {"members = 2\n", "members = 2\ntime = \n", "members = 2\ntime = x\n",
        "time = 42\n", "members = two\ntime = 42\n"}) {
    std::ofstream(manifest, std::ios::trunc) << body;
    EXPECT_THROW(load_ensemble(dir, fresh), std::runtime_error) << body;
  }
  std::ofstream(manifest, std::ios::trunc) << "members = 2\ntime = 42\n";
  load_ensemble(dir, fresh);
  EXPECT_EQ(fresh.time(), 42.0);
  fs::remove_all(dir);
}

TEST(Checkpoint, RestartContinuesIntegration) {
  // The operational pattern: checkpoint, lose the process, restore,
  // continue — the restored run must stay finite and advance time.
  Grid g = cgrid();
  scale::Ensemble ens(g, scale::convective_sounding(), light(), 2);
  Rng rng(7);
  ens.perturb({}, rng);
  ens.advance(3.0f);
  const auto dir = (fs::temp_directory_path() / "bda_ckpt_restart").string();
  fs::remove_all(dir);
  save_ensemble(dir, ens);

  scale::Ensemble resumed(g, scale::convective_sounding(), light(), 2);
  load_ensemble(dir, resumed);
  resumed.advance(3.0f);
  EXPECT_DOUBLE_EQ(resumed.time(), 6.0);
  EXPECT_FALSE(resumed.member(0).has_nonfinite());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bda::workflow
