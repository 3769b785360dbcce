// The seed SCALE kernels, kept as the bitwise oracle for src/scale
// (docs/SCALE_KERNELS.md): the original per-point loops, arithmetic
// unchanged apart from three fixes production carries too (heap column
// scratch, turbulence halos that follow the lateral BC, and the boundary
// layer reading every column's winds before any column mixes).  Production
// must reproduce them bit for bit; test_scale_kernel_parity and
// bench_scale_kernels check that.  Do not optimize this code.
#pragma once

#include <memory>
#include <vector>

#include "scale/model.hpp"

namespace bda::scale::oracle {

class Dynamics {
 public:
  Dynamics(const Grid& grid, const ReferenceState& ref, DynParams params);
  void step(State& s, real dt);

 private:
  void fill_halos(State& s) const;
  void fill_halo(RField3D& f) const;
  void compute_derived(const State& in);
  void compute_tendencies(const State& in, Tendencies& tend, real dt_full);
  void hyperdiffusion(const State& in, Tendencies& tend, real nu4);
  void vertical_implicit(const State& s0, const State& in,
                         const Tendencies& tend, real dts, State& out);

  const Grid& grid_;
  const ReferenceState& ref_;
  DynParams params_;
  std::vector<real> pref_;
  RField3D ufc_, vfc_, wfc_, th_, prs_, div_, lap_;
  State stage_in_, stage_out_;
  Tendencies tend_;
};

class Microphysics {
 public:
  Microphysics(const Grid& grid, MicroParams params = {});
  void step(State& s, real dt) {
    phase_changes(s, dt);
    sedimentation(s, dt);
  }
  void sediment_only(State& s, real dt) { sedimentation(s, dt); }
  const RField2D& accumulated_precip() const { return accum_precip_; }
  const RField2D& last_rate() const { return last_rate_; }

 private:
  void phase_changes(State& s, real dt);
  void sedimentation(State& s, real dt);

  const Grid& grid_;
  MicroParams params_;
  RField2D accum_precip_, last_rate_;
};

class Turbulence {
 public:
  Turbulence(const Grid& grid, TurbParams params = {},
             LateralBc bc = LateralBc::kClamp);
  void step(State& s, real dt);
  const RField3D& k_m() const { return km_; }

 private:
  void compute_viscosity(const State& s);

  const Grid& grid_;
  TurbParams params_;
  LateralBc bc_;
  RField3D km_;
};

/// Marches and mixes a production BoundaryLayer's tke() with its params(),
/// so the production Surface can feed the same TKE.
void boundary_layer_step(const Grid& grid, BoundaryLayer& pbl, State& s,
                         real dt);

/// scale::Model on the oracle kernels: scale::step_model's sequence with
/// the production Surface, Radiation and Davies rim.
class Model {
 public:
  Model(const Grid& grid, const Sounding& sounding, ModelConfig cfg = {});
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  void step();
  void set_boundary(const BoundaryDriver* driver, idx width = 5,
                    real tau = 10.0f);
  State& state() { return state_; }
  const Microphysics& microphysics() const { return micro_; }

 private:
  Grid grid_;
  ReferenceState ref_;
  ModelConfig cfg_;
  State state_;
  Dynamics dyn_;
  Microphysics micro_;
  Turbulence turb_;
  scale::BoundaryLayer pbl_;
  scale::Surface sfc_;
  scale::Radiation rad_;
  double time_ = 0.0;
  long step_count_ = 0;

  const BoundaryDriver* bdy_driver_ = nullptr;
  idx bdy_width_ = 5;
  real bdy_tau_ = 10.0f;
  std::unique_ptr<State> bdy_state_;
};

}  // namespace bda::scale::oracle
