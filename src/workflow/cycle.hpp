// The functional BDA cycle: an observing-system simulation experiment
// (OSSE) twin of the operational workflow.
//
// A high-resolution nature run plays the real atmosphere.  Every 30 seconds
// (Fig 2):
//   - the radar simulator completes a volume scan of the nature run (T_obs),
//   - the scan is (optionally) serialized and moved through JIT-DT,
//   - observations are regridded to the analysis grid (Table 2),
//   - the LETKF assimilates them into the ensemble            <1-1>,
//   - the ensemble integrates 30 s to the next analysis time  <1-2>,
// and on demand the ensemble mean + randomly chosen members launch the
// 30-minute product forecast                                   <2>.
// This is the engine behind the Fig 6/Fig 7 benches, the integration tests
// and the examples.
#pragma once

#include <memory>
#include <vector>

#include "hpc/sharded_engine.hpp"
#include "jitdt/transfer.hpp"
#include "letkf/letkf.hpp"
#include "pawr/datafile.hpp"
#include "pawr/forward.hpp"
#include "pawr/obsgen.hpp"
#include "scale/ensemble.hpp"
#include "scale/model.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace bda::workflow {

struct BdaSystemConfig {
  double cycle_s = 30.0;            ///< refresh interval (the paper's 30 s)
  int n_members = 32;               ///< ensemble size (paper: 1000)
  scale::ModelConfig model;         ///< shared by nature run and ensemble
  letkf::LetkfConfig letkf;
  pawr::ScanConfig scan;
  pawr::RadarSimConfig radar;
  /// Additional radar sites (dual/multi MP-PAWR coverage, the paper's Expo
  /// 2025 deployment and ref [42]'s network OSSE).  Each scans the same
  /// geometry; their observations join the primary radar's each cycle.
  std::vector<pawr::RadarSimConfig> extra_radars;
  pawr::ObsGenConfig obsgen;
  scale::PerturbationSpec perturb;  ///< initial ensemble spread
  /// Drive multiplicative inflation adaptively from innovation statistics
  /// (Desroziers); complements the Table 2 RTPP relaxation.
  bool adaptive_inflation = false;
  /// One-way nesting (Fig 3): a coarse outer-domain model, itself forced by
  /// the synthetic mesoscale driver, is advanced on its own refresh cadence
  /// and interpolated onto the inner grid as the lateral boundary target
  /// for nature and ensemble (Davies rim).
  bool use_outer_domain = false;
  real outer_dx = 1500.0f;          ///< outer grid spacing (paper: 1.5 km)
  double outer_refresh_s = 10800.0; ///< outer forecast cadence (paper: 3 h)
  idx davies_width = 4;
  real davies_tau = 20.0f;
  bool transfer_scans = false;      ///< push scans through JIT-DT each cycle
  jitdt::JitDtConfig jitdt;
  std::uint64_t seed = 20210729;    ///< the July 29, 2021 event, of course
};

struct CycleResult {
  double t_obs = 0;                   ///< scan completion time
  std::size_t n_obs = 0;              ///< regridded observations offered
  letkf::AnalysisStats analysis;
  jitdt::TransferResult transfer;     ///< valid if transfer_scans
  double nature_max_dbz = 0;          ///< storm intensity in the truth
};

class BdaSystem {
 public:
  BdaSystem(const scale::Grid& grid, const scale::Sounding& sounding,
            BdaSystemConfig cfg);

  /// Integrate the nature run alone (ensemble untouched) — storm spin-up
  /// before cycling starts.
  void spinup_nature(double seconds);

  /// Integrate nature AND ensemble together (free spin-up before the first
  /// analysis, as the operational system does between outer-domain
  /// refreshes): the ensemble develops flow-dependent spread — without it
  /// the LETKF has no covariance to create rain from.
  void spinup(double seconds);

  /// Trigger convection in the nature run (and, with `in_ensemble`, a
  /// weaker/displaced version in every member so the ensemble has rain to
  /// correct rather than to invent).
  void trigger_storm(real x, real y, real amplitude, bool in_ensemble,
                     real displace = 4000.0f);

  /// Perturb the ensemble with the configured spec.
  void perturb_ensemble();

  /// One full 30-s cycle: advance nature, observe, assimilate, advance
  /// ensemble to the new analysis time.  Composes the staged API below in
  /// serial order; PipelinedDriver composes the same stages with real
  /// concurrency and produces bitwise-identical analyses.
  CycleResult cycle();

  // --- Staged cycle API (Fig 2 decomposition) -----------------------------
  //
  // RNG discipline: all random draws of a cycle (radar sampling noise, one
  // draw per site) happen in advance_and_observe(), on the calling thread.
  // regrid_observations() is const and pure with respect to the system
  // state, and advance_ensemble() is rng-free — which is what lets the
  // driver overlap the JIT-DT/regrid work with the <1-2> ensemble advance
  // without perturbing the random stream or the results.

  /// Scans of one cycle plus the partially filled result record.
  struct ObservedScans {
    CycleResult partial;                  ///< t_obs (and transfer) filled
    pawr::VolumeScan scan;                ///< primary site's volume scan
    std::vector<pawr::VolumeScan> extra;  ///< one per extra radar site
  };

  /// Stage T_obs: refresh the nested boundary if due, advance nature to
  /// the new observation time, and complete all volume scans.
  ObservedScans advance_and_observe();

  /// Optional JIT-DT stage: move the primary scan's bytes through the
  /// fail-safe channel (no-op unless cfg.transfer_scans), filling
  /// partial.transfer and replacing the scan with the delivered copy.
  /// Rng-free and const on the system — safe to overlap with
  /// advance_ensemble().
  void transfer_scan(ObservedScans& scans) const;

  /// Regrid all scans to analysis-grid observations (Table 2: 500 m).
  /// Const and thread-safe against advance_ensemble(): touches only the
  /// grid and configuration.
  letkf::ObsVector regrid_observations(const ObservedScans& scans) const;

  /// <1-2>: ensemble background at the new observation time.
  void advance_ensemble();

  /// <1-1>: LETKF analysis (plus adaptive inflation and truth
  /// diagnostics); completes the cycle record started by
  /// advance_and_observe().
  CycleResult finish_analysis(CycleResult partial,
                              const letkf::ObsVector& obs);

  /// Run the analysis sharded over px x py simulated ranks (threads-as-
  /// ranks over hpc::CommWorld): the <1-1> LETKF becomes domain tiles, and
  /// ensemble state moves between the member blocks of the <1-2> advance
  /// (Ensemble::advance, the same at every layout) and the tiles through
  /// the in-memory shuffle — no file round-trip.  The
  /// staged API is unchanged, so PipelinedDriver drives a sharded system
  /// exactly as a serial one, and the analyses stay bitwise identical to
  /// serial (the ShardedEngine determinism contract, docs/SHARDING.md).
  /// Call once, after construction; throws if the grid is not divisible by
  /// (px, py).
  void enable_sharding(int px, int py);
  bool sharded() const { return sharded_ != nullptr; }
  hpc::ShardedEngine* sharded_engine() { return sharded_.get(); }

  /// Attach a metrics sink (may be null): per-stage timers
  /// ("cycle.nature", "cycle.observe", "cycle.jitdt", "cycle.regrid",
  /// "cycle.ensemble", "cycle.letkf", "cycle.total") and counters
  /// ("cycle.cycles", "cycle.obs") are recorded through it, and the sink
  /// is forwarded to the LETKF for its weight-kernel counters
  /// ("letkf.eig_batches", "letkf.weight_cache_hit"/"_miss",
  /// "letkf.eig_fail" — docs/LETKF_KERNEL.md) and to the ensemble for its
  /// per-block advance CPU ("scale.advance_block", "_max").
  void set_metrics(util::Metrics* metrics) {
    metrics_ = metrics;
    ens_.set_metrics(metrics);
    letkf_.set_metrics(metrics);
    if (sharded_) sharded_->set_metrics(metrics);
  }

  /// Observe the nature run now (without assimilating) — for verification.
  pawr::VolumeScan observe_nature();

  /// 2-km-height reflectivity map of a state (the paper's Fig 6 view).
  RField2D reflectivity_map(const scale::State& s, real height_m = 2000.0f) const;

  scale::Model& nature() { return nature_; }
  scale::Ensemble& ensemble() { return ens_; }
  const scale::Grid& grid() const { return grid_; }
  const scale::Sounding& sounding() const { return sounding_; }
  const BdaSystemConfig& config() const { return cfg_; }
  double time() const { return time_; }
  Rng& rng() { return rng_; }

 private:
  scale::Grid grid_;
  BdaSystemConfig cfg_;
  scale::Sounding sounding_;
  Rng rng_;
  scale::Model nature_;
  scale::Ensemble ens_;
  pawr::RadarSimulator radar_;
  std::vector<pawr::RadarSimulator> extra_radars_;
  letkf::Letkf letkf_;
  letkf::AdaptiveInflation adaptive_infl_;
  letkf::ObsOperator obsop_;
  double time_ = 0.0;
  util::Metrics* metrics_ = nullptr;  ///< optional stage-timing sink
  std::unique_ptr<hpc::ShardedEngine> sharded_;  ///< set by enable_sharding

  // One-way nesting chain (only when cfg.use_outer_domain).
  void refresh_outer_boundary();
  std::unique_ptr<scale::Grid> outer_grid_;
  std::unique_ptr<scale::Model> outer_model_;
  std::unique_ptr<scale::SyntheticMesoscaleDriver> meso_driver_;
  std::unique_ptr<scale::State> inner_bc_;
  std::unique_ptr<scale::StateDriver> bc_driver_;
  double last_outer_refresh_ = -1.0e30;
};

/// Run a forecast from one initial state for `lead_s` seconds and return the
/// reflectivity map every `out_every_s` (first entry = initial time).  Used
/// by the product forecast <2> and the Fig 7 skill curves.  `metrics` (may
/// be null) receives the "forecast.product" stage timer and the
/// "forecast.maps" counter; it is safe to share one sink across concurrent
/// forecasts.
std::vector<RField2D> run_forecast_maps(const scale::Grid& grid,
                                        const scale::Sounding& sounding,
                                        const scale::ModelConfig& cfg,
                                        const scale::State& init,
                                        double lead_s, double out_every_s,
                                        real height_m = 2000.0f,
                                        util::Metrics* metrics = nullptr);

}  // namespace bda::workflow
