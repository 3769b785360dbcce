// Month-long operational simulation (Fig 5).
//
// Reproduces the statistics of the Olympics/Paralympics deployment: one
// forecast every 30 s, time-to-solution = file creation + JIT-DT + LETKF
// <1-1> + 30-minute forecast <2> (Fig 4; the cycle forecast <1-2> runs off
// the critical path but must finish within the 30-s interval).  Component
// times come from the calibrated BdaCostModel; LETKF and forecast work
// scale with a synthetic rain-area climatology (diurnal modulation +
// Poisson storm events — "the more the rain area, the more the
// computation"); outage periods (the gray shading of Fig 5a/b) come from a
// failure-injection model of the kind the operational fail-safe handled.
#pragma once

#include <cstddef>
#include <vector>

#include "hpc/perf_model.hpp"
#include "jitdt/transfer.hpp"
#include "util/rng.hpp"

namespace bda::workflow {

struct RainClimatology {
  double base_area_km2 = 150.0;     ///< mean light-rain area (>=1 mm/h)
  double diurnal_frac = 0.6;        ///< afternoon convection modulation
  double storm_rate_per_day = 3.0;  ///< Poisson arrivals of heavy events
  double storm_area_km2 = 900.0;    ///< peak added area of one event
  double storm_growth_s = 1800.0;   ///< e-folding growth time
  double storm_decay_s = 5400.0;    ///< e-folding decay time
  double heavy_fraction = 0.12;     ///< >=20 mm/h area as fraction of >=1
};

struct OutageModel {
  // Tuned so net production lands near the paper's record: 75,248
  // forecasts over a 32-day campaign = 82% of cycles (the gray shading in
  // Fig 5a/b covers the rest).
  double mtbf_s = 2.5 * 86400.0;     ///< mean time between outages
  double mean_duration_s = 21600.0;  ///< mean outage length
};

struct OperationConfig {
  double cycle_s = 30.0;
  double scan_bytes = 100.0e6;          ///< ~100 MB per volume scan
  double file_creation_mean_s = 20.0;   ///< radar-server file build
  double file_creation_sd_s = 3.0;
  double disk_bw = 2.0e9;               ///< exclusive volume, product write
  double product_bytes = 400.0e6;       ///< 11-member forecast product
  jitdt::JitDtConfig jitdt;
  hpc::FugakuSpec fugaku;
  int forecast_groups = 4;              ///< part <2> rotating node groups
  RainClimatology rain;
  OutageModel outages;
  // Problem size (paper values).
  std::size_t grid_cells = 256ull * 256ull * 60ull;
  std::size_t members = 1000;
  int product_members = 11;
  long steps_30s = 75;      ///< 30 s / 0.4 s
  long steps_30min = 4500;  ///< 1800 s / 0.4 s
  double jitter_frac = 0.08;  ///< run-to-run component-time noise
  /// Occasional slow cycles (I/O congestion, checkpoint interference...):
  /// the few-percent tail above 3 minutes in the paper's Fig 5c histogram.
  double slow_cycle_prob = 0.03;
  double slow_factor = 1.35;
  /// A product forecast may wait this long for a busy node group before the
  /// cycle is skipped (a later cycle's fresher analysis supersedes it).
  double max_forecast_wait_s = 15.0;
};

struct CycleRecord {
  double t_obs = 0;          ///< scan completion (start of TTS clock)
  bool produced = false;     ///< false during outages / dropped slots
  double t_file = 0, t_jitdt = 0, t_letkf = 0, t_fcst = 0;
  double tts = 0;            ///< total time-to-solution [s]
  double rain_area_1mm = 0;  ///< km^2 (Fig 5 cyan)
  double rain_area_20mm = 0; ///< km^2 (Fig 5 blue)
  double t_cycle_fcst = 0;   ///< <1-2>, off the TTS path
};

struct OperationSummary {
  std::size_t cycles_total = 0;
  std::size_t forecasts_produced = 0;
  double frac_under_3min = 0;
  double mean_tts = 0, p50_tts = 0, p97_tts = 0, max_tts = 0;
  double mean_file = 0, mean_jitdt = 0, mean_letkf = 0, mean_fcst = 0;
  double produced_seconds = 0;  ///< net production time ("26 days 3 hours")
};

class OperationSimulator {
 public:
  OperationSimulator(OperationConfig cfg, hpc::HostCalibration cal);

  /// Simulate `n_cycles` 30-s cycles starting at local time `t0_s` (seconds
  /// after local midnight; the diurnal cycle cares).
  std::vector<CycleRecord> run(std::size_t n_cycles, Rng& rng,
                               double t0_s = 6.0 * 3600.0) const;

  static OperationSummary summarize(const std::vector<CycleRecord>& recs);

  const OperationConfig& config() const { return cfg_; }
  const hpc::BdaCostModel& cost_model() const { return cost_; }

 private:
  OperationConfig cfg_;
  hpc::BdaCostModel cost_;
};

}  // namespace bda::workflow
