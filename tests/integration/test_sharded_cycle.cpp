// Sharded-cycle determinism contract (docs/SHARDING.md).
//
// A cycle run through hpc::ShardedEngine — the member-block <1-2> advance
// every layout shares, in-memory member->domain shuffle, domain-sharded
// <1-1> LETKF, halo exchange, domain->member return — must be BITWISE
// identical to the serial cycle() at every rank layout.  This is the
// integration gate for the whole sharded path: any nondeterministic
// reduction, mis-tagged message, wrong shuffle range or clock drift shows
// up as a byte mismatch here.  Runs under every sanitizer preset; the tsan
// build is the race gate for the shuffle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <omp.h>

#include "util/metrics.hpp"
#include "workflow/pipeline.hpp"

namespace bda::workflow {
namespace {

using scale::Grid;

// 12x12 divides by every tested layout (1x1, 2x1, 2x2, 4x2).
Grid sharded_grid() {
  return Grid::stretched(12, 12, 8, 500.0f, 8000.0f, 250.0f, 1.12f);
}

BdaSystemConfig sharded_config(int members) {
  BdaSystemConfig cfg;
  cfg.cycle_s = 6.0;  // scaled-down refresh: 10 model steps per cycle
  cfg.n_members = members;
  cfg.model.dt = 0.6f;
  cfg.model.physics_every = 10;
  cfg.model.enable_rad = false;

  cfg.scan.range_max = 7000.0f;
  cfg.scan.gate_length = 500.0f;
  cfg.scan.n_azimuth = 24;
  cfg.scan.n_elevation = 8;

  cfg.radar.radar_x = 3000.0f;
  cfg.radar.radar_y = 3000.0f;
  cfg.radar.radar_z = 50.0f;
  cfg.radar.block_az_from = cfg.radar.block_az_to = 0.0f;

  cfg.obsgen.clear_air = true;
  cfg.obsgen.clear_air_thin = 8;

  cfg.letkf.hloc = 1500.0f;
  cfg.letkf.vloc = 1500.0f;
  cfg.letkf.rtpp_alpha = 0.7f;
  cfg.letkf.z_min = 0.0f;
  cfg.letkf.z_max = 8000.0f;
  cfg.letkf.max_obs_per_grid = 32;

  cfg.perturb.theta_amp = 0.4f;
  cfg.perturb.qv_frac = 0.04f;
  cfg.perturb.wind_amp = 0.6f;
  cfg.perturb.zmax = 6000.0f;
  return cfg;
}

std::unique_ptr<BdaSystem> build_system(const Grid& g,
                                        const BdaSystemConfig& cfg) {
  auto sys = std::make_unique<BdaSystem>(g, scale::convective_sounding(), cfg);
  sys->perturb_ensemble();
  sys->trigger_storm(3000.0f, 3000.0f, 3.5f, /*in_ensemble=*/true, 1200.0f);
  sys->spinup(60.0);
  return sys;
}

void expect_bitwise_equal(const scale::State& a, const scale::State& b,
                          int member) {
  auto eq = [&](std::span<const real> x, std::span<const real> y,
                const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(real)), 0)
        << "member " << member << " " << what;
  };
  eq(a.dens.raw(), b.dens.raw(), "dens");
  eq(a.momx.raw(), b.momx.raw(), "momx");
  eq(a.momy.raw(), b.momy.raw(), "momy");
  eq(a.momz.raw(), b.momz.raw(), "momz");
  eq(a.rhot.raw(), b.rhot.raw(), "rhot");
  for (int t = 0; t < scale::kNumTracers; ++t)
    eq(a.rhoq[t].raw(), b.rhoq[t].raw(), scale::tracer_name(t));
}

void expect_stats_equal(const letkf::AnalysisStats& a,
                        const letkf::AnalysisStats& b, int cycle) {
  EXPECT_EQ(a.n_obs_in, b.n_obs_in) << "cycle " << cycle;
  EXPECT_EQ(a.n_obs_qc, b.n_obs_qc) << "cycle " << cycle;
  EXPECT_EQ(a.n_grid_updated, b.n_grid_updated) << "cycle " << cycle;
  EXPECT_EQ(a.n_eig_fail, b.n_eig_fail) << "cycle " << cycle;
  EXPECT_EQ(a.n_weight_solved, b.n_weight_solved) << "cycle " << cycle;
  EXPECT_EQ(a.mean_local_obs, b.mean_local_obs) << "cycle " << cycle;
  EXPECT_EQ(a.mean_abs_innovation, b.mean_abs_innovation)
      << "cycle " << cycle;
}

// The contract itself: serial vs sharded at 1, 2 and 8 ranks (1x1 pins the
// degenerate self-neighbor layout, 2x1 the minimal genuine decomposition,
// 4x2 a two-dimensional one with corner traffic).
class ShardedCycleBitwise
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShardedCycleBitwise, MatchesSerialCycle) {
  const auto [px, py] = GetParam();
  const Grid g = sharded_grid();
  const auto cfg = sharded_config(4);

  auto serial = build_system(g, cfg);
  auto sharded = build_system(g, cfg);
  sharded->enable_sharding(px, py);
  ASSERT_TRUE(sharded->sharded());

  for (int c = 0; c < 2; ++c) {
    const CycleResult rs = serial->cycle();
    const CycleResult rh = sharded->cycle();
    EXPECT_EQ(rs.n_obs, rh.n_obs) << "cycle " << c;
    expect_stats_equal(rs.analysis, rh.analysis, c);
    EXPECT_EQ(serial->time(), sharded->time()) << "cycle " << c;
    for (int m = 0; m < cfg.n_members; ++m)
      expect_bitwise_equal(serial->ensemble().member(m),
                           sharded->ensemble().member(m), m);
  }
  // Nothing may be left sitting in a mailbox after a clean cycle.
  EXPECT_GT(sharded->sharded_engine()->peak_mailbox_depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RankLayouts, ShardedCycleBitwise,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(2, 1),
                      std::make_pair(2, 2), std::make_pair(4, 2)));

// More members than ranks and members not divisible by ranks: block_of must
// split 5 members over 4 ranks as 2+1+1+1 without losing anyone.
TEST(ShardedCycle, UnevenMemberBlocksStayBitwise) {
  const Grid g = sharded_grid();
  const auto cfg = sharded_config(5);

  auto serial = build_system(g, cfg);
  auto sharded = build_system(g, cfg);
  sharded->enable_sharding(2, 2);

  const CycleResult rs = serial->cycle();
  const CycleResult rh = sharded->cycle();
  expect_stats_equal(rs.analysis, rh.analysis, 0);
  for (int m = 0; m < cfg.n_members; ++m)
    expect_bitwise_equal(serial->ensemble().member(m),
                         sharded->ensemble().member(m), m);
}

// Fewer members than ranks: some ranks own an empty block yet must still
// participate in every collective and drain every message.
TEST(ShardedCycle, EmptyMemberBlocksStayBitwise) {
  const Grid g = sharded_grid();
  const auto cfg = sharded_config(3);

  auto serial = build_system(g, cfg);
  auto sharded = build_system(g, cfg);
  sharded->enable_sharding(4, 2);  // 8 ranks, 3 members

  const CycleResult rs = serial->cycle();
  const CycleResult rh = sharded->cycle();
  expect_stats_equal(rs.analysis, rh.analysis, 0);
  for (int m = 0; m < cfg.n_members; ++m)
    expect_bitwise_equal(serial->ensemble().member(m),
                         sharded->ensemble().member(m), m);
}

TEST(ShardedCycle, IndivisibleGridRejected) {
  const Grid g = sharded_grid();  // 12x12
  auto sys = build_system(g, sharded_config(2));
  EXPECT_THROW(sys->enable_sharding(5, 1), std::invalid_argument);
  EXPECT_THROW(sys->enable_sharding(1, 7), std::invalid_argument);
}

// The staged API is unchanged by sharding, so PipelinedDriver must drive a
// sharded system exactly as a serial one — pipelining and sharding compose
// without costing a bit.
TEST(ShardedCycle, PipelinedDriverOverShardedSystemStaysBitwise) {
  const Grid g = sharded_grid();
  const auto cfg = sharded_config(4);
  constexpr std::size_t kCycles = 3;

  auto serial = build_system(g, cfg);
  std::vector<CycleResult> serial_results;
  for (std::size_t c = 0; c < kCycles; ++c)
    serial_results.push_back(serial->cycle());

  auto sharded = build_system(g, cfg);
  sharded->enable_sharding(2, 2);
  util::Metrics metrics;
  sharded->set_metrics(&metrics);
  PipelineConfig pcfg;
  pcfg.n_groups = 2;
  pcfg.product_every = 2;
  pcfg.forecast_lead_s = 2.0 * cfg.cycle_s;
  pcfg.forecast_out_every_s = cfg.cycle_s;
  PipelinedDriver driver(*sharded, pcfg, &metrics);
  const auto piped = driver.run(kCycles);
  driver.drain();

  ASSERT_EQ(piped.size(), kCycles);
  for (std::size_t c = 0; c < kCycles; ++c)
    expect_stats_equal(serial_results[c].analysis, piped[c].analysis,
                       int(c));
  for (int m = 0; m < cfg.n_members; ++m)
    expect_bitwise_equal(serial->ensemble().member(m),
                         sharded->ensemble().member(m), m);
  // The metrics schema is live: per-block advance timers plus the
  // max-over-blocks series, and the per-rank analysis TTS series, one
  // sample per cycle.
  EXPECT_EQ(metrics.samples("scale.advance_block_max"), kCycles);
  EXPECT_GE(metrics.samples("scale.advance_block"), kCycles);
  EXPECT_EQ(metrics.samples("shard.analysis_max"), kCycles);
  EXPECT_GT(metrics.counter("shard.shuffle_bytes"), 0u);
}

// One advance at every layout: the serial and the sharded cycle record the
// same per-block advance CPU, one sample per member block of the caller's
// team and one max per cycle.
TEST(ShardedCycle, AdvanceBlocksRecordedAtEveryLayout) {
  const Grid g = sharded_grid();
  const auto cfg = sharded_config(4);
  constexpr std::size_t kCycles = 1;
  const int save = omp_get_max_threads();
  omp_set_num_threads(2);
  for (int ranks : {1, 2}) {
    SCOPED_TRACE(testing::Message() << ranks << " ranks");
    // No storm or spin-up: only the metrics schema is under test here.
    BdaSystem sys(g, scale::convective_sounding(), cfg);
    if (ranks > 1) sys.enable_sharding(ranks, 1);
    util::Metrics metrics;
    sys.set_metrics(&metrics);
    for (std::size_t c = 0; c < kCycles; ++c) sys.cycle();
    EXPECT_EQ(metrics.samples("scale.advance_block"), 2 * kCycles);
    EXPECT_EQ(metrics.samples("scale.advance_block_max"), kCycles);
    EXPECT_GT(metrics.percentile("scale.advance_block_max", 50), 0.0);
  }
  omp_set_num_threads(save);
}

}  // namespace
}  // namespace bda::workflow
