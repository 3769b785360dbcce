#include "workflow/operations.hpp"

#include <algorithm>
#include <cmath>

#include "hpc/scheduler.hpp"
#include "util/stats.hpp"

namespace bda::workflow {

OperationSimulator::OperationSimulator(OperationConfig cfg,
                                       hpc::HostCalibration cal)
    : cfg_(cfg), cost_(cal, cfg.fugaku) {}

std::vector<CycleRecord> OperationSimulator::run(std::size_t n_cycles,
                                                 Rng& rng,
                                                 double t0_s) const {
  std::vector<CycleRecord> recs;
  recs.reserve(n_cycles);

  // --- rain-area series: diurnal base + Poisson storm events.
  struct Storm {
    double t_start;
    double peak;
  };
  std::vector<Storm> storms;
  const double horizon = double(n_cycles) * cfg_.cycle_s;
  {
    double t = 0;
    const double rate = cfg_.rain.storm_rate_per_day / 86400.0;
    while (t < horizon) {
      t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;
      if (t < horizon)
        storms.push_back(
            {t, cfg_.rain.storm_area_km2 * (0.5 + rng.uniform())});
    }
  }
  auto rain_area = [&](double t) {
    const double tod = std::fmod(t0_s + t, 86400.0);
    // Afternoon convection peak near 15 LT.
    const double diurnal =
        1.0 + cfg_.rain.diurnal_frac *
                  std::sin(2.0 * M_PI * (tod - 9.0 * 3600.0) / 86400.0);
    double area = cfg_.rain.base_area_km2 * std::max(diurnal, 0.1);
    for (const auto& s : storms) {
      const double dt = t - s.t_start;
      if (dt < 0) continue;
      const double grow = 1.0 - std::exp(-dt / cfg_.rain.storm_growth_s);
      const double decay = std::exp(-dt / cfg_.rain.storm_decay_s);
      area += s.peak * grow * decay;
    }
    return area;
  };

  // --- outage schedule (gray shading in Fig 5).
  std::vector<std::pair<double, double>> outages;
  {
    double t = 0;
    while (t < horizon) {
      t += -std::log(std::max(rng.uniform(), 1e-12)) * cfg_.outages.mtbf_s;
      if (t >= horizon) break;
      const double d =
          -std::log(std::max(rng.uniform(), 1e-12)) *
          cfg_.outages.mean_duration_s;
      outages.emplace_back(t, t + d);
      t += d;
    }
  }
  auto in_outage = [&](double t) {
    for (const auto& [a, b] : outages)
      if (t >= a && t < b) return true;
    return false;
  };

  // --- forecast scheduler state (rotating groups, part <2>): the same
  // admission policy object as the PipelinedDriver, so drop/queue
  // semantics cannot drift between the twin and the implementation.
  hpc::RotatingGroupPool pool(cfg_.forecast_groups, cfg_.max_forecast_wait_s);

  jitdt::JitDtLink link(cfg_.jitdt);
  const double domain_km2 = 128.0 * 128.0;

  auto jitter = [&](double v) {
    return v * (1.0 + cfg_.jitter_frac * rng.normal());
  };

  for (std::size_t c = 0; c < n_cycles; ++c) {
    CycleRecord r;
    r.t_obs = double(c) * cfg_.cycle_s;
    const double area1 = rain_area(r.t_obs);
    r.rain_area_1mm = area1;
    r.rain_area_20mm = area1 * cfg_.rain.heavy_fraction;

    if (in_outage(r.t_obs)) {
      recs.push_back(r);  // produced = false: gray period
      continue;
    }

    // File creation at the radar server.
    r.t_file = std::max(
        1.0, rng.normal(cfg_.file_creation_mean_s, cfg_.file_creation_sd_s));

    // JIT-DT transfer of the ~100 MB scan.
    r.t_jitdt = jitter(link.estimate_time(
        static_cast<std::size_t>(cfg_.scan_bytes)));

    // LETKF <1-1>: analysis points scale with observed rain coverage —
    // covered columns get the obs-cap workload, the rest see clear-air
    // thinning only.
    const double rain_frac = std::min(area1 / domain_km2, 1.0);
    const std::size_t points_full = static_cast<std::size_t>(
        double(cfg_.grid_cells) * (0.15 + 0.85 * rain_frac));
    const double mean_obs = 200.0 + 800.0 * rain_frac;  // cap = 1000
    r.t_letkf = jitter(cost_.t_letkf(points_full, cfg_.members, mean_obs,
                                     cfg_.fugaku.nodes_analysis));

    // Cycle forecast <1-2> (off the TTS path; must fit within 30 s).
    r.t_cycle_fcst = jitter(cost_.t_forecast(
        cfg_.grid_cells, int(cfg_.members), cfg_.steps_30s,
        cfg_.fugaku.nodes_analysis));

    // Product forecast <2>: admitted when the analysis is ready; runs on
    // the first free rotating group.
    const double t_ready = r.t_obs + r.t_file + r.t_jitdt + r.t_letkf;
    double fcst_runtime = jitter(cost_.t_forecast(
        cfg_.grid_cells, cfg_.product_members, cfg_.steps_30min,
        cfg_.fugaku.nodes_forecast));
    if (rng.uniform() < cfg_.slow_cycle_prob)
      fcst_runtime *= cfg_.slow_factor;
    // The job may queue briefly for the earliest-free group; beyond the
    // wait budget the cycle is skipped (a fresher analysis supersedes it).
    const double t_product_write = hpc::BdaCostModel::t_file(
        cfg_.product_bytes, cfg_.disk_bw, 0.5);
    const auto adm = pool.admit(t_ready, fcst_runtime + t_product_write);
    if (!adm.admitted) {
      recs.push_back(r);
      continue;
    }

    r.t_fcst = fcst_runtime + t_product_write;
    r.tts = adm.t_done - r.t_obs;
    r.produced = true;
    recs.push_back(r);
  }
  return recs;
}

OperationSummary OperationSimulator::summarize(
    const std::vector<CycleRecord>& recs) {
  OperationSummary s;
  s.cycles_total = recs.size();
  std::vector<double> tts;
  RunningStats f, j, l, fc;
  for (const auto& r : recs) {
    if (!r.produced) continue;
    ++s.forecasts_produced;
    tts.push_back(r.tts);
    f.add(r.t_file);
    j.add(r.t_jitdt);
    l.add(r.t_letkf);
    fc.add(r.t_fcst);
  }
  if (!tts.empty()) {
    s.frac_under_3min = fraction_below(tts, 180.0);
    RunningStats all;
    for (double v : tts) all.add(v);
    s.mean_tts = all.mean();
    s.max_tts = all.max();
    s.p50_tts = percentile(tts, 50.0);
    s.p97_tts = percentile(tts, 97.0);
    s.mean_file = f.mean();
    s.mean_jitdt = j.mean();
    s.mean_letkf = l.mean();
    s.mean_fcst = fc.mean();
  }
  s.produced_seconds = double(s.forecasts_produced) * 30.0;
  return s;
}

}  // namespace bda::workflow
