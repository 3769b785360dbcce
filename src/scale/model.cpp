#include "scale/model.hpp"

#include <cmath>

namespace bda::scale {

Model::Model(const Grid& grid, const Sounding& sounding, ModelConfig cfg)
    : grid_(grid), ref_(ReferenceState::build(grid_, sounding)), cfg_(cfg),
      state_(grid_), dyn_(grid_, ref_, cfg.dyn), micro_(grid_, cfg.micro),
      turb_(grid_, cfg.turb, cfg.dyn.lateral_bc), pbl_(grid_, cfg.pbl),
      sfc_(grid_, cfg.sfc),
      rad_(grid_, cfg.rad) {
  state_.init_from_reference(grid_, ref_);
  state_.fill_halos_periodic();
}

void Model::set_boundary(const BoundaryDriver* driver, idx width, real tau) {
  bdy_driver_ = driver;
  bdy_width_ = width;
  bdy_tau_ = tau;
  if (driver && !bdy_state_) bdy_state_ = std::make_unique<State>(grid_);
}

void step_model(const ModelConfig& cfg, const StepEngines& eng, State& s,
                long step_count, double time, const State* rim,
                idx rim_width, real rim_tau) {
  eng.dyn.step(s, cfg.dt);
  if (cfg.enable_micro) eng.micro.step(s, cfg.dt);
  if (step_count % cfg.physics_every == 0) {
    const real pdt = cfg.dt * real(cfg.physics_every);
    if (cfg.enable_turb) eng.turb.step(s, pdt);
    if (cfg.enable_pbl) eng.pbl.step(s, pdt);
    if (cfg.enable_sfc)
      eng.sfc.step(s, pdt, cfg.enable_pbl ? &eng.pbl : nullptr,
                   real(std::fmod(time, 86400.0)));
    if (cfg.enable_rad) eng.rad.step(s, pdt);
  }
  if (rim) apply_davies(s, *rim, rim_width, cfg.dt, rim_tau);
}

void Model::step() {
  // The rim target does not depend on the model state, so it is filled
  // before the step (as Ensemble fills it once per member block).
  if (bdy_driver_) bdy_driver_->fill(time_, *bdy_state_);
  step_model(cfg_, {dyn_, micro_, turb_, pbl_, sfc_, rad_}, state_,
             step_count_, time_, bdy_driver_ ? bdy_state_.get() : nullptr,
             bdy_width_, bdy_tau_);
  time_ += double(cfg_.dt);
  ++step_count_;
}

void Model::advance(real duration) {
  const long n = static_cast<long>(std::floor(duration / cfg_.dt + 0.5f));
  for (long s = 0; s < n; ++s) step();
}

}  // namespace bda::scale
