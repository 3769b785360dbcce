// Single-trajectory model: dynamics plus the full physics suite behind one
// `step()` call.  This is the deterministic building block; ensembles use
// scale::Ensemble, whose member blocks share pooled engine scratch.
#pragma once

#include <memory>

#include "scale/boundary.hpp"
#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/grid.hpp"
#include "scale/microphysics.hpp"
#include "scale/radiation.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"
#include "scale/surface.hpp"
#include "scale/turbulence.hpp"

namespace bda::scale {

struct ModelConfig {
  real dt = 0.4f;  ///< dynamics time step [s] (Table 3 value)
  DynParams dyn;
  MicroParams micro;
  TurbParams turb;
  PblParams pbl;
  SurfaceParams sfc;
  RadParams rad;
  bool enable_micro = true;
  bool enable_turb = true;
  bool enable_pbl = true;
  bool enable_sfc = true;
  bool enable_rad = true;
  /// Physics are sub-cycled: called every `physics_every` dynamics steps
  /// (microphysics always runs every step; it controls precipitation).
  int physics_every = 5;
};

/// The engines one model step drives.  Model owns a full set; Ensemble
/// steps each member block with the scratch-only ones of one pool
/// EngineSet and keeps microphysics and boundary layer (trajectory state)
/// per member.
struct StepEngines {
  Dynamics& dyn;
  Microphysics& micro;
  Turbulence& turb;
  BoundaryLayer& pbl;
  Surface& sfc;
  Radiation& rad;
};

/// One model step of `s`, the sequence Model and Ensemble share: dynamics
/// and microphysics over cfg.dt; every cfg.physics_every steps turbulence,
/// boundary layer, surface and radiation over physics_every * dt; then the
/// Davies rim toward `rim` when one is given.  `step_count` and `time` are
/// the clock at the start of the step.
void step_model(const ModelConfig& cfg, const StepEngines& eng, State& s,
                long step_count, double time, const State* rim,
                idx rim_width, real rim_tau);

class Model {
 public:
  Model(const Grid& grid, const Sounding& sounding, ModelConfig cfg = {});
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// One dynamics step (cfg.dt) plus operator-split physics.
  void step();
  /// Integrate for `duration` seconds (rounded down to whole steps).
  void advance(real duration);

  State& state() { return state_; }
  const State& state() const { return state_; }
  const Grid& grid() const { return grid_; }
  const ReferenceState& reference() const { return ref_; }
  const ModelConfig& config() const { return cfg_; }
  double time() const { return time_; }
  void set_time(double t) { time_ = t; }
  Microphysics& microphysics() { return micro_; }

  /// Attach a lateral boundary driver (regional mode).  The model relaxes a
  /// `width`-cell rim toward the driver state with time scale `tau` after
  /// every step.  Pass nullptr to detach (periodic mode).
  void set_boundary(const BoundaryDriver* driver, idx width = 5,
                    real tau = 10.0f);

 private:
  Grid grid_;
  ReferenceState ref_;
  ModelConfig cfg_;
  State state_;
  Dynamics dyn_;
  Microphysics micro_;
  Turbulence turb_;
  BoundaryLayer pbl_;
  Surface sfc_;
  Radiation rad_;
  double time_ = 0.0;
  long step_count_ = 0;

  const BoundaryDriver* bdy_driver_ = nullptr;
  idx bdy_width_ = 5;
  real bdy_tau_ = 10.0f;
  std::unique_ptr<State> bdy_state_;
};

}  // namespace bda::scale
