#include "workflow/cycle.hpp"

#include <cmath>

#include "scale/microphysics.hpp"

namespace bda::workflow {

namespace {
/// Regional (nested) runs relax a Davies rim toward the outer state; the
/// model halos must then be clamped, not periodic.
scale::ModelConfig adjusted_model(const BdaSystemConfig& cfg) {
  scale::ModelConfig m = cfg.model;
  if (cfg.use_outer_domain)
    m.dyn.lateral_bc = scale::LateralBc::kClamp;
  return m;
}

/// Column reflectivity [dBZ] of `s` on the model level containing
/// `height_m` (the top level when the height lies above the domain).
RField2D reflectivity_at_height(const scale::Grid& grid,
                                const scale::State& s, real height_m) {
  idx kz = grid.nz() - 1;
  for (idx k = 0; k < grid.nz(); ++k)
    if (height_m < grid.zf(k + 1)) {
      kz = k;
      break;
    }
  RField2D out(s.nx, s.ny, 0);
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      out(i, j) = scale::cell_reflectivity_dbz(s, i, j, kz);
  return out;
}
}  // namespace

BdaSystem::BdaSystem(const scale::Grid& grid, const scale::Sounding& sounding,
                     BdaSystemConfig cfg)
    : grid_(grid), cfg_(cfg), sounding_(sounding), rng_(cfg.seed),
      nature_(grid_, sounding, adjusted_model(cfg)),
      ens_(grid_, sounding, adjusted_model(cfg), cfg.n_members),
      radar_(grid_, cfg.scan, cfg.radar),
      extra_radars_([&] {
        std::vector<pawr::RadarSimulator> v;
        v.reserve(cfg.extra_radars.size());
        for (const auto& rc : cfg.extra_radars)
          v.emplace_back(grid_, cfg.scan, rc);
        return v;
      }()),
      letkf_(grid_, cfg.letkf),
      obsop_(grid_, cfg.radar.radar_x, cfg.radar.radar_y, cfg.radar.radar_z,
             cfg.radar.micro) {
  if (cfg_.use_outer_domain) {
    // Outer domain: same horizontal cell count at coarser spacing (so it
    // covers outer_dx/dx times the inner extent, centered — Fig 3a) and
    // the exact inner vertical column.
    outer_grid_ = std::make_unique<scale::Grid>(scale::Grid::with_faces(
        grid_.nx(), grid_.ny(), cfg_.outer_dx, grid_.faces()));
    scale::ModelConfig ocfg = cfg_.model;
    ocfg.dt *= cfg_.outer_dx / grid_.dx();  // coarser grid, longer step
    ocfg.dyn.lateral_bc = scale::LateralBc::kClamp;
    outer_model_ =
        std::make_unique<scale::Model>(*outer_grid_, sounding, ocfg);
    meso_driver_ = std::make_unique<scale::SyntheticMesoscaleDriver>(
        *outer_grid_, outer_model_->reference(), 5.0f, 2.0f);
    outer_model_->set_boundary(meso_driver_.get(), 4, 60.0f);

    inner_bc_ = std::make_unique<scale::State>(grid_);
    bc_driver_ = std::make_unique<scale::StateDriver>(inner_bc_.get());
    refresh_outer_boundary();  // initial boundary at t = 0
    nature_.set_boundary(bc_driver_.get(), cfg_.davies_width,
                         cfg_.davies_tau);
    ens_.set_boundary(bc_driver_.get(), cfg_.davies_width, cfg_.davies_tau);
  }
}

void BdaSystem::refresh_outer_boundary() {
  if (!cfg_.use_outer_domain) return;
  if (time_ - last_outer_refresh_ < cfg_.outer_refresh_s) return;
  // Advance the outer forecast to the current time and downscale it.
  const double lag = time_ - outer_model_->time();
  if (lag > 0) outer_model_->advance(real(lag));
  scale::nest_interpolate(outer_model_->state(), *outer_grid_, *inner_bc_,
                          grid_);
  last_outer_refresh_ = time_;
}

void BdaSystem::spinup_nature(double seconds) {
  nature_.advance(real(seconds));
  time_ = nature_.time();
  ens_.set_time(time_);
}

void BdaSystem::spinup(double seconds) {
  nature_.advance(real(seconds));
  ens_.advance(real(seconds));
  time_ = nature_.time();
}

void BdaSystem::trigger_storm(real x, real y, real amplitude,
                              bool in_ensemble, real displace) {
  scale::add_thermal_bubble(nature_.state(), grid_, x, y, 1200.0f, 3000.0f,
                            1200.0f, amplitude);
  scale::add_moisture_anomaly(nature_.state(), grid_, x, y, 1000.0f, 4000.0f,
                              1500.0f, 0.002f);
  if (in_ensemble) {
    for (int m = 0; m < ens_.size(); ++m) {
      // Same storm, displaced and weakened differently per member: the
      // ensemble "knows" convection is around but not exactly where —
      // the situation the 30-s radar refresh corrects.
      const real dx = real(rng_.normal(0.0, displace));
      const real dy = real(rng_.normal(0.0, displace));
      const real amp = amplitude * real(0.7 + 0.3 * rng_.uniform());
      scale::add_thermal_bubble(ens_.member(m), grid_, x + dx, y + dy,
                                1200.0f, 3000.0f, 1200.0f, amp);
      scale::add_moisture_anomaly(ens_.member(m), grid_, x + dx, y + dy,
                                  1000.0f, 4000.0f, 1500.0f, 0.002f);
    }
  }
}

void BdaSystem::perturb_ensemble() {
  ens_.perturb(cfg_.perturb, rng_);
}

pawr::VolumeScan BdaSystem::observe_nature() {
  return radar_.observe(nature_.state(), time_, rng_);
}

BdaSystem::ObservedScans BdaSystem::advance_and_observe() {
  ObservedScans out;

  // Fig 3 cadence: refresh the nested lateral boundary when the outer
  // domain's 3-hourly (scaled) forecast is due.
  refresh_outer_boundary();

  // Nature evolves to the new observation time.
  {
    util::Metrics::ScopedTimer t(metrics_, "cycle.nature");
    nature_.advance(real(cfg_.cycle_s));
  }
  time_ = nature_.time();

  // Radars complete their volume scans of the truth (T_obs).  All random
  // draws of the cycle happen here, in site order.
  {
    util::Metrics::ScopedTimer t(metrics_, "cycle.observe");
    out.scan = radar_.observe(nature_.state(), time_, rng_);
    out.extra.reserve(extra_radars_.size());
    for (auto& site : extra_radars_)
      out.extra.push_back(site.observe(nature_.state(), time_, rng_));
  }
  out.partial.t_obs = time_;
  return out;
}

void BdaSystem::transfer_scan(ObservedScans& scans) const {
  // Optionally push the primary scan's bytes through JIT-DT (the real
  // data path).
  if (!cfg_.transfer_scans) return;
  util::Metrics::ScopedTimer t(metrics_, "cycle.jitdt");
  jitdt::JitDtLink link(cfg_.jitdt);
  const auto bytes = pawr::encode_scan(scans.scan);
  std::vector<std::uint8_t> delivered;
  scans.partial.transfer = link.transfer(bytes, delivered);
  scans.scan = pawr::decode_scan(delivered);
}

letkf::ObsVector BdaSystem::regrid_observations(
    const ObservedScans& scans) const {
  util::Metrics::ScopedTimer t(metrics_, "cycle.regrid");
  // Regrid to analysis-grid observations (Table 2: 500-m resolution).
  auto obs = pawr::regrid_scan(scans.scan, grid_, cfg_.radar.radar_x,
                               cfg_.radar.radar_y, cfg_.radar.radar_z,
                               cfg_.obsgen);
  // Multi-radar coverage: every extra site scans the same truth; its
  // observations (carrying their own beam origin for Doppler) are appended.
  for (std::size_t r = 0; r < scans.extra.size(); ++r) {
    const auto& rc = cfg_.extra_radars[r];
    const auto extra = pawr::regrid_scan(scans.extra[r], grid_, rc.radar_x,
                                         rc.radar_y, rc.radar_z, cfg_.obsgen);
    obs.insert(obs.end(), extra.begin(), extra.end());
  }
  return obs;
}

void BdaSystem::enable_sharding(int px, int py) {
  sharded_ = std::make_unique<hpc::ShardedEngine>(ens_, letkf_, obsop_,
                                                  grid_,
                                                  hpc::ShardConfig{px, py});
  sharded_->set_metrics(metrics_);
}

void BdaSystem::advance_ensemble() {
  // <1-2>: ensemble background at the observation time.
  util::Metrics::ScopedTimer t(metrics_, "cycle.ensemble");
  if (sharded_)
    sharded_->advance_ensemble(real(cfg_.cycle_s));
  else
    ens_.advance(real(cfg_.cycle_s));
}

CycleResult BdaSystem::finish_analysis(CycleResult partial,
                                       const letkf::ObsVector& obs) {
  CycleResult res = std::move(partial);
  res.n_obs = obs.size();

  // <1-1>: LETKF analysis (domain-sharded when sharding is enabled; the
  // results are bitwise identical either way).
  {
    util::Metrics::ScopedTimer t(metrics_, "cycle.letkf");
    res.analysis =
        sharded_ ? sharded_->analyze(obs) : letkf_.analyze(ens_, obs, obsop_);
  }
  if (cfg_.adaptive_inflation) {
    adaptive_infl_.update(res.analysis.moments);
    letkf_.set_inflation(adaptive_infl_.rho());
  }

  RField2D nat = reflectivity_map(nature_.state());
  res.nature_max_dbz = nat.interior_max();
  if (metrics_) {
    metrics_->count("cycle.cycles");
    metrics_->count("cycle.obs", res.n_obs);
  }
  return res;
}

CycleResult BdaSystem::cycle() {
  util::Metrics::ScopedTimer total(metrics_, "cycle.total");
  ObservedScans scans = advance_and_observe();
  transfer_scan(scans);
  const letkf::ObsVector obs = regrid_observations(scans);
  advance_ensemble();
  return finish_analysis(std::move(scans.partial), obs);
}

RField2D BdaSystem::reflectivity_map(const scale::State& s,
                                     real height_m) const {
  return reflectivity_at_height(grid_, s, height_m);
}

std::vector<RField2D> run_forecast_maps(const scale::Grid& grid,
                                        const scale::Sounding& sounding,
                                        const scale::ModelConfig& cfg,
                                        const scale::State& init,
                                        double lead_s, double out_every_s,
                                        real height_m, util::Metrics* metrics) {
  util::Metrics::ScopedTimer timer(metrics, "forecast.product");
  scale::Model fc(grid, sounding, cfg);
  fc.state() = init;

  std::vector<RField2D> maps;
  maps.push_back(reflectivity_at_height(grid, fc.state(), height_m));
  const long n_out = static_cast<long>(std::floor(lead_s / out_every_s + 0.5));
  for (long n = 0; n < n_out; ++n) {
    fc.advance(real(out_every_s));
    maps.push_back(reflectivity_at_height(grid, fc.state(), height_m));
  }
  if (metrics) metrics->count("forecast.maps", maps.size());
  return maps;
}

}  // namespace bda::workflow
