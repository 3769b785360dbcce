// The LETKF local analysis against the seed kernels kept as a test oracle
// (tests/support/letkf_oracle, docs/LETKF_KERNEL.md).  Production ranks
// local obs on packed (distance, position) keys, builds the Gram matrix and
// the projection with the observation loop outside, and leaves zero-spread
// rows out of both; every one of those must reproduce the oracle bit for
// bit, signed zeros included.
#include <gtest/gtest.h>
#include <omp.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "letkf/letkf.hpp"
#include "letkf/letkf_core.hpp"
#include "letkf_oracle.hpp"
#include "util/rng.hpp"
#include "workflow/cycle.hpp"

namespace bda::letkf {
namespace {

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// ---------------------------------------------------------------------------
// Gram matrix and innovation projection.

enum class Rows { kRandom, kZero, kNegZero, kMixed };

const char* rows_name(Rows r) {
  switch (r) {
    case Rows::kRandom: return "random";
    case Rows::kZero: return "zero";
    case Rows::kNegZero: return "negzero";
    case Rows::kMixed: return "mixed";
  }
  return "?";
}

// Y (p x k) with the given row pattern.  Mixed rows cycle through a random
// row, an all +0 row, an all -0 row, a row of alternating +0/-0, and a row
// whose single nonzero entry walks across every member position.
std::vector<float> make_rows(std::size_t k, std::size_t p, Rows pattern,
                             Rng& rng) {
  std::vector<float> y(p * k);
  for (std::size_t n = 0; n < p; ++n) {
    float* row = y.data() + n * k;
    const std::size_t kind =
        pattern == Rows::kMixed ? n % 5 : static_cast<std::size_t>(pattern);
    for (std::size_t m = 0; m < k; ++m) {
      switch (kind) {
        case 0: row[m] = float(rng.normal()); break;
        case 1: row[m] = 0.0f; break;
        case 2: row[m] = -0.0f; break;
        case 3: row[m] = (m % 2) ? -0.0f : 0.0f; break;
        default:
          row[m] = m == (n / 5) % k ? float(rng.normal()) + 2.0f
                                    : ((m % 2) ? -0.0f : 0.0f);
          break;
      }
    }
  }
  return y;
}

class LetkfOracleGram
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, Rows>> {};

TEST_P(LetkfOracleGram, MatchesSeedBitwiseWithAndWithoutZeroRows) {
  const auto [k, p, pattern] = GetParam();
  Rng rng(1000 * k + p + 17 * static_cast<std::uint64_t>(pattern));
  const std::vector<float> y = make_rows(k, p, pattern, rng);
  std::vector<float> d(p), rinv(p);
  for (std::size_t n = 0; n < p; ++n) {
    d[n] = float(rng.normal());
    rinv[n] = 0.05f + float(std::abs(rng.normal()));
  }
  const float rho = 1.07f;

  std::vector<float> yr_o, a_o(k * k), cd_o(k);
  oracle::build_gram(k, p, y.data(), rinv.data(), rho, yr_o, a_o.data());
  oracle::innovation_projection(k, p, yr_o, d.data(), cd_o.data());

  // Every row, as letkf_weights and ColumnWeightSolver::add_level pass them.
  std::vector<float> yr, a(k * k), cd(k);
  letkf_build_gram(k, p, y.data(), rinv.data(), rho, yr, a.data());
  letkf_innovation_projection(k, p, yr, d.data(), cd.data());
  EXPECT_TRUE(same_bits(a, a_o)) << "Gram, all rows";
  EXPECT_TRUE(same_bits(cd, cd_o)) << "projection, all rows";

  // Zero-spread rows left out, as Letkf::analyze_window gathers them.
  std::vector<float> y_kept, d_kept, rinv_kept;
  for (std::size_t n = 0; n < p; ++n) {
    if (zero_spread(y.data() + n * k, k)) continue;
    y_kept.insert(y_kept.end(), y.begin() + long(n * k),
                  y.begin() + long((n + 1) * k));
    d_kept.push_back(d[n]);
    rinv_kept.push_back(rinv[n]);
  }
  const std::size_t rows = d_kept.size();
  if (pattern == Rows::kZero || pattern == Rows::kNegZero) {
    EXPECT_EQ(rows, 0u);
  }
  if (pattern == Rows::kRandom) {
    EXPECT_EQ(rows, p);
  }
  std::fill(a.begin(), a.end(), 0.0f);
  std::fill(cd.begin(), cd.end(), 0.0f);
  letkf_build_gram(k, rows, y_kept.data(), rinv_kept.data(), rho, yr,
                   a.data());
  letkf_innovation_projection(k, rows, yr, d_kept.data(), cd.data());
  EXPECT_TRUE(same_bits(a, a_o)) << "Gram, zero-spread rows skipped";
  EXPECT_TRUE(same_bits(cd, cd_o)) << "projection, zero-spread rows skipped";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LetkfOracleGram,
    ::testing::Combine(::testing::Values(1u, 2u, 12u, 64u),
                       ::testing::Values(0u, 1u, 7u, 200u),
                       ::testing::Values(Rows::kRandom, Rows::kZero,
                                         Rows::kNegZero, Rows::kMixed)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_" +
             rows_name(std::get<2>(info.param));
    });

TEST(LetkfOracleGram, OneNonzeroEntryIsNotZeroSpread) {
  for (std::size_t k : {1u, 2u, 12u, 64u})
    for (std::size_t m = 0; m < k; ++m) {
      std::vector<float> row(k, -0.0f);
      row[m] = 1e-30f;
      EXPECT_FALSE(zero_spread(row.data(), k)) << "k " << k << " m " << m;
    }
  const std::vector<float> zeros = {0.0f, -0.0f, 0.0f};
  EXPECT_TRUE(zero_spread(zeros.data(), zeros.size()));
}

// ---------------------------------------------------------------------------
// Local-obs selection.

TEST(LetkfOracleSelect, KeysMatchSeedPairsUnderTiesAndCaps) {
  Rng rng(424242);
  std::vector<std::uint64_t> keys;
  std::vector<std::pair<real, std::size_t>> pairs;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(600);
    // Few distinct distances (as on the regridded 500-m lattice), +0
    // among them, and positions presented in shuffled order.
    std::vector<std::size_t> order(n);
    for (std::size_t q = 0; q < n; ++q) order[q] = q;
    for (std::size_t q = n; q > 1; --q)
      std::swap(order[q - 1], order[rng.uniform_int(q)]);
    keys.clear();
    pairs.clear();
    for (std::size_t q : order) {
      const real dist = real(rng.uniform_int(6)) * real(0.25);
      keys.push_back(pack_obs_key(dist, static_cast<std::uint32_t>(q)));
      pairs.emplace_back(dist, q);
    }
    for (std::size_t cap : {std::size_t{1}, std::size_t{8}, std::size_t{200},
                            n + 1}) {
      std::vector<std::uint64_t> k2 = keys;
      std::vector<std::pair<real, std::size_t>> p2 = pairs;
      select_nearest(k2, cap);
      oracle::select_nearest(p2, cap);
      ASSERT_EQ(k2.size(), p2.size()) << "trial " << trial << " cap " << cap;
      for (std::size_t s = 0; s < k2.size(); ++s) {
        ASSERT_EQ(obs_key_pos(k2[s]), p2[s].second)
            << "trial " << trial << " cap " << cap << " slot " << s;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(p2[s].first), k2[s] >> 32);
      }
    }
  }
}

TEST(LetkfOracleSelect, KeyRangeGuardThrowsPastThirtyTwoBits) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(check_obs_key_range(0));
  EXPECT_NO_THROW(check_obs_key_range(kMax));
  EXPECT_THROW(check_obs_key_range(kMax + 1), std::length_error);
  EXPECT_THROW(check_obs_key_range(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

// ---------------------------------------------------------------------------
// analyze_window on the dense OSSE setting: every clear-air report kept
// (clear_air_thin 1), so most rows have zero spread.

workflow::BdaSystemConfig dense_config(int cap) {
  workflow::BdaSystemConfig cfg;
  cfg.cycle_s = 3.0;
  cfg.n_members = 8;
  cfg.model.dt = 0.6f;
  cfg.model.physics_every = 5;
  cfg.model.enable_rad = false;

  cfg.scan.range_max = 10000.0f;
  cfg.scan.gate_length = 500.0f;
  cfg.scan.n_azimuth = 48;
  cfg.scan.n_elevation = 16;
  cfg.radar.radar_x = 6000.0f;
  cfg.radar.radar_y = 6000.0f;
  cfg.radar.radar_z = 50.0f;
  cfg.radar.block_az_from = 200.0f;
  cfg.radar.block_az_to = 215.0f;

  cfg.obsgen.clear_air = true;
  cfg.obsgen.clear_air_thin = 1;

  cfg.letkf.hloc = 2000.0f;
  cfg.letkf.vloc = 2000.0f;
  cfg.letkf.rtpp_alpha = 0.7f;
  cfg.letkf.z_min = 0.0f;
  cfg.letkf.z_max = 11000.0f;
  cfg.letkf.max_obs_per_grid = cap;

  cfg.perturb.theta_amp = 0.4f;
  cfg.perturb.qv_frac = 0.04f;
  cfg.perturb.wind_amp = 0.6f;
  cfg.perturb.zmax = 6000.0f;
  return cfg;
}

void expect_members_equal(const std::vector<scale::State>& a,
                          const std::vector<scale::State>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    auto eq = [&](const RField3D& x, const RField3D& y, const char* f) {
      EXPECT_EQ(std::memcmp(x.raw().data(), y.raw().data(),
                            x.raw().size() * sizeof(real)),
                0)
          << what << ": member " << m << " " << f;
    };
    eq(a[m].dens, b[m].dens, "dens");
    eq(a[m].momx, b[m].momx, "momx");
    eq(a[m].momy, b[m].momy, "momy");
    eq(a[m].momz, b[m].momz, "momz");
    eq(a[m].rhot, b[m].rhot, "rhot");
    for (int t = 0; t < scale::kNumTracers; ++t)
      eq(a[m].rhoq[t], b[m].rhoq[t], scale::tracer_name(t));
  }
}

EnsembleSlab slab_of(std::vector<scale::State>& members) {
  EnsembleSlab slab;
  for (auto& s : members) slab.members.push_back(&s);
  return slab;
}

// One raining storm, its observations and the prepared obs-space table.
// Set up as the repository benchmark does: the truth runs 300 s alone until
// it rains, the members are cut from it and perturbed, and the truth runs
// 60 s ahead, so the members carry rain with spread and clear air without.
struct DenseCase {
  workflow::BdaSystemConfig cfg = dense_config(200);
  std::unique_ptr<workflow::BdaSystem> sys;
  PreparedObs prep;

  DenseCase() {
    // The set-up is not under test: run it on one thread, which keeps it
    // cheap under the sanitizers.  The analyses below use the full team.
    const int team = omp_get_max_threads();
    omp_set_num_threads(1);
    sys = std::make_unique<workflow::BdaSystem>(
        scale::Grid::stretched(20, 20, 10, 500.0f, 10000.0f, 250.0f, 1.12f),
        scale::convective_sounding(), cfg);
    sys->trigger_storm(6000.0f, 6000.0f, 4.0f, /*in_ensemble=*/false);
    sys->spinup_nature(300.0);
    for (int m = 0; m < sys->ensemble().size(); ++m)
      sys->ensemble().member(m) = sys->nature().state();
    sys->perturb_ensemble();
    sys->spinup_nature(60.0);
    sys->spinup(30.0);
    auto scans = sys->advance_and_observe();
    const ObsVector obs = sys->regrid_observations(scans);
    sys->advance_ensemble();

    const std::size_t k = static_cast<std::size_t>(cfg.n_members);
    const ObsOperator op(sys->grid(), cfg.radar.radar_x, cfg.radar.radar_y,
                         cfg.radar.radar_z, cfg.radar.micro);
    std::vector<real> hx(obs.size() * k);
    for (std::size_t m = 0; m < k; ++m) {
      const std::vector<real> h = Letkf::member_hx(
          sys->ensemble().member(static_cast<int>(m)), obs, op);
      for (std::size_t n = 0; n < obs.size(); ++n) hx[n * k + m] = h[n];
    }
    prep = Letkf(sys->grid(), cfg.letkf).prepare(obs, hx, k);
    omp_set_num_threads(team);
  }

  std::vector<scale::State> members() const {
    std::vector<scale::State> out;
    for (int m = 0; m < cfg.n_members; ++m)
      out.push_back(sys->ensemble().member(m));
    return out;
  }
};

void expect_window_matches_seed(const DenseCase& dc, int cap) {
  SCOPED_TRACE("max_obs_per_grid " + std::to_string(cap));
  const PreparedObs& prep = dc.prep;
  std::size_t n_zero = 0;
  for (std::uint8_t z : prep.zero_spread) n_zero += z;
  // The setting must exercise both kinds of row.
  ASSERT_GT(n_zero, prep.obs.size() / 2);
  ASSERT_LT(n_zero, prep.obs.size());

  LetkfConfig lcfg = dc.cfg.letkf;
  lcfg.max_obs_per_grid = cap;
  const scale::Grid& grid = dc.sys->grid();
  const Letkf letkf(grid, lcfg);

  std::vector<scale::State> seed = dc.members(), serial = seed, split = seed;
  const idx nx = grid.nx(), ny = grid.ny();
  const WindowTally t_seed = oracle::analyze_window(grid, lcfg, prep,
                                                    slab_of(seed), 0, nx, 0,
                                                    ny);
  const WindowTally t_serial =
      letkf.analyze_window(prep, slab_of(serial), 0, nx, 0, ny);
  const EnsembleSlab halves = slab_of(split);
  const WindowTally t_w = letkf.analyze_window(prep, halves, 0, nx / 2, 0, ny);
  const WindowTally t_e = letkf.analyze_window(prep, halves, nx / 2, nx, 0, ny);

  ASSERT_GT(t_seed.grid_updated, 0u);
  if (cap == 8) {
    // The cap binds on most analysed levels.
    EXPECT_GT(t_seed.local_obs, 7 * t_seed.grid_updated);
  }
  EXPECT_EQ(t_serial.grid_updated, t_seed.grid_updated);
  EXPECT_EQ(t_serial.local_obs, t_seed.local_obs);
  EXPECT_EQ(t_serial.eig_fail, t_seed.eig_fail);
  EXPECT_EQ(t_w.grid_updated + t_e.grid_updated, t_seed.grid_updated);
  EXPECT_EQ(t_w.local_obs + t_e.local_obs, t_seed.local_obs);
  expect_members_equal(serial, seed, "serial window");
  expect_members_equal(split, seed, "2x1 windows");
}

// The dense OSSE setting at its cap of 200, then at a cap of 8 that binds,
// so ties at the cap boundary decide which obs are kept.  One process
// builds the storm once for both.
TEST(LetkfOracleWindow, DenseOsseMatchesSeedSerialAnd2x1) {
  const DenseCase dc;
  expect_window_matches_seed(dc, 200);
  expect_window_matches_seed(dc, 8);
}

}  // namespace
}  // namespace bda::letkf
