// Ensemble of model trajectories.
//
// The paper runs 1000 members for the 30-second cycle forecasts (<1-2>) and
// 11 members (mean + 10 random analyses) for the 30-minute product forecast
// (<2>).  Members are the outer unit of parallelism: advance() splits them
// into contiguous blocks, one per thread of the caller's OpenMP team, and
// each block steps with its own EngineSet from a private pool of exactly
// that team's sets.  Sharded or not, this is the one ensemble advance.
// Per-member trajectory state — the prognostic State, boundary-layer TKE
// and accumulated precipitation — is kept per member; the engine sets hold
// scratch only, so which set steps a member never changes its bits.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "scale/boundary.hpp"
#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/microphysics.hpp"
#include "scale/model.hpp"
#include "scale/radiation.hpp"
#include "scale/surface.hpp"
#include "scale/turbulence.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace bda::scale {

/// Amplitudes for the additive initial/boundary ensemble perturbations
/// (paper Fig 3: "additive ensemble perturbations" seed the outer-domain
/// ensemble).  Perturbations are spatially smooth: white noise generated on
/// a coarsened grid and bilinearly interpolated.
struct PerturbationSpec {
  real theta_amp = 0.3f;   ///< potential temperature [K]
  real qv_frac = 0.05f;    ///< fractional vapor perturbation
  real wind_amp = 0.5f;    ///< horizontal momentum / density [m/s]
  idx coarsen = 4;         ///< smoothness: noise grid coarsening factor
  real zmax = 6000.0f;     ///< perturb below this height only
};

/// Contiguous member block [m0, m1) of `part` when `members` are split
/// near-evenly into `parts` (the first members % parts blocks one larger;
/// empty when part >= members); advance() and the shuffle ownership of
/// hpc::ShardedEngine split with it.
struct MemberBlock {
  int m0 = 0, m1 = 0;
};
MemberBlock member_block(int members, int parts, int part);

class Ensemble {
 public:
  Ensemble(const Grid& grid, const Sounding& sounding, ModelConfig cfg,
           int n_members);
  Ensemble(const Ensemble&) = delete;
  Ensemble& operator=(const Ensemble&) = delete;

  int size() const { return static_cast<int>(members_.size()); }
  State& member(int m) { return members_[static_cast<std::size_t>(m)]; }
  const State& member(int m) const {
    return members_[static_cast<std::size_t>(m)];
  }
  const Grid& grid() const { return grid_; }
  const ReferenceState& reference() const { return ref_; }
  double time() const { return time_; }
  void set_time(double t) { time_ = t; }

  /// Apply independent smooth perturbations to every member.
  void perturb(const PerturbationSpec& spec, Rng& rng);

  /// Integrate all members forward by `duration` seconds.  Members step in
  /// contiguous blocks on a team of min(omp_get_max_threads(), size())
  /// threads (1 inside an active parallel region), each block on its own
  /// pool EngineSet, and the kernels' column loops run on one-thread
  /// teams.  A one-thread team (e.g. a single member) leaves the column
  /// loops parallel instead.  Bitwise-identical at every team size.  Each
  /// block's thread CPU seconds are recorded after the join, in block
  /// order, as "scale.advance_block", and their max as "_max".
  void advance(real duration);

  /// Ensemble mean state (all prognostic fields).
  State mean() const;

  /// Attach a shared lateral boundary driver (Davies rim, as in Model).
  void set_boundary(const BoundaryDriver* driver, idx width = 5,
                    real tau = 10.0f);

  /// Accumulated surface precipitation of member m [mm].
  const RField2D& precip(int m) const {
    return micro_[static_cast<std::size_t>(m)]->accumulated_precip();
  }

  /// Attach a metrics sink (may be null) for the per-block advance CPU.
  void set_metrics(util::Metrics* metrics) { metrics_ = metrics; }

 private:
  /// The scratch-only engines one member block steps with.  Dynamics,
  /// turbulence, surface and radiation carry no trajectory state, so any set
  /// steps a member to bitwise-identical state; that is what lets member
  /// blocks advance concurrently, each on its own set.
  struct EngineSet {
    EngineSet(const Grid& grid, const ReferenceState& ref,
              const ModelConfig& cfg)
        : dyn(grid, ref, cfg.dyn), turb(grid, cfg.turb, cfg.dyn.lateral_bc),
          sfc(grid, cfg.sfc), rad(grid, cfg.rad) {}

    Dynamics dyn;
    Turbulence turb;
    Surface sfc;
    Radiation rad;
    /// Davies rim target (allocated iff a boundary driver is attached;
    /// BoundaryDriver::fill is a deterministic function of time, so every
    /// set's copy holds identical bytes).
    std::unique_ptr<State> bdy_state;
  };

  /// Step members [m0, m1) with `eng` on a copy of the clock; advance()
  /// commits the clock once, after every block.
  void advance_block(real duration, int m0, int m1, EngineSet& eng);

  Grid grid_;
  ReferenceState ref_;
  ModelConfig cfg_;
  double time_ = 0.0;
  long step_count_ = 0;

  std::vector<std::unique_ptr<EngineSet>> pool_;  ///< one set per block
  std::vector<State> members_;
  std::vector<std::unique_ptr<Microphysics>> micro_;
  std::vector<std::unique_ptr<BoundaryLayer>> pbl_;

  const BoundaryDriver* bdy_driver_ = nullptr;
  idx bdy_width_ = 5;
  real bdy_tau_ = 10.0f;
  util::Metrics* metrics_ = nullptr;
};

/// Smooth random field on [0, nx) x [0, ny): white noise on a coarsened
/// grid, bilinearly interpolated (shared helper, also used for the LETKF
/// OSSE tests).
RField2D smooth_noise(idx nx, idx ny, idx coarsen, Rng& rng);

}  // namespace bda::scale
