// oracle::Model: scale::step_model's sequence on the oracle kernels.
#include <cmath>

#include "scale_oracle.hpp"

namespace bda::scale::oracle {

Model::Model(const Grid& grid, const Sounding& sounding, ModelConfig cfg)
    : grid_(grid), ref_(ReferenceState::build(grid_, sounding)), cfg_(cfg),
      state_(grid_), dyn_(grid_, ref_, cfg.dyn), micro_(grid_, cfg.micro),
      turb_(grid_, cfg.turb, cfg.dyn.lateral_bc), pbl_(grid_, cfg.pbl),
      sfc_(grid_, cfg.sfc), rad_(grid_, cfg.rad) {
  state_.init_from_reference(grid_, ref_);
  state_.fill_halos_periodic();
}

void Model::set_boundary(const BoundaryDriver* driver, idx width, real tau) {
  bdy_driver_ = driver;
  bdy_width_ = width;
  bdy_tau_ = tau;
  if (driver && !bdy_state_) bdy_state_ = std::make_unique<State>(grid_);
}

void Model::step() {
  if (bdy_driver_) bdy_driver_->fill(time_, *bdy_state_);
  dyn_.step(state_, cfg_.dt);
  if (cfg_.enable_micro) micro_.step(state_, cfg_.dt);
  if (step_count_ % cfg_.physics_every == 0) {
    const real pdt = cfg_.dt * real(cfg_.physics_every);
    if (cfg_.enable_turb) turb_.step(state_, pdt);
    if (cfg_.enable_pbl) boundary_layer_step(grid_, pbl_, state_, pdt);
    if (cfg_.enable_sfc)
      sfc_.step(state_, pdt, cfg_.enable_pbl ? &pbl_ : nullptr,
                real(std::fmod(time_, 86400.0)));
    if (cfg_.enable_rad) rad_.step(state_, pdt);
  }
  if (bdy_driver_)
    apply_davies(state_, *bdy_state_, bdy_width_, cfg_.dt, bdy_tau_);
  time_ += double(cfg_.dt);
  ++step_count_;
}

}  // namespace bda::scale::oracle
