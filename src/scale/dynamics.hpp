// HEVI dynamical core (horizontally explicit, vertically implicit).
//
// Fully compressible flux-form equations integrated with 3-stage
// Wicker-Skamarock Runge-Kutta.  Within each stage all horizontal terms
// (advection, pressure gradient, divergence damping, hyperdiffusion) are
// explicit; the vertically propagating acoustic/gravity terms — vertical
// pressure gradient, buoyancy, and the vertical mass/heat fluxes they feed —
// are integrated backward-Euler, reducing to one tridiagonal solve per
// column per stage.  This is the "hybrid (explicit in the horizontal,
// implicit in the vertical)" integration the paper lists in Table 3, and it
// is what allows dt = 0.4 s at dx = 500 m with ~80-m near-surface layers
// (vertical acoustic CFL > 1).
#pragma once

#include <array>

#include "scale/grid.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"

namespace bda::scale {

enum class LateralBc {
  kPeriodic,  ///< doubly periodic (idealized tests, nature runs)
  kClamp,     ///< zero-gradient; pair with boundary::DaviesRelaxation
};

struct DynParams {
  int rk_stages = 3;           ///< 1 = forward Euler (tests), 3 = WS-RK3
  real divdamp_coef = 0.05f;   ///< 3-D divergence damping, nondimensional
  real hyperdiff_coef = 0.01f; ///< 4th-order horizontal filter, nondim
  real sponge_depth = 3000.0f; ///< Rayleigh layer below model top [m]
  real sponge_tau = 120.0f;    ///< sponge relaxation time scale [s]
  real f_coriolis = 0.0f;      ///< f-plane parameter [1/s] (0 = off)
  LateralBc lateral_bc = LateralBc::kPeriodic;
};

/// Explicit tendencies of all prognostic variables for one RK stage.
/// Vertical acoustic terms are *not* included here — the implicit solver
/// owns them.
struct Tendencies {
  explicit Tendencies(const Grid& g);
  RField3D dens, rhot, momx, momy, momz;
  std::array<RField3D, kNumTracers> rhoq;
};

class Dynamics {
 public:
  Dynamics(const Grid& grid, const ReferenceState& ref, DynParams params);

  /// Advance the state by dt.
  void step(State& s, real dt);

  const DynParams& params() const { return params_; }

  /// Exposed for unit tests: compute explicit tendencies of `in` into
  /// `tend` (assumes halos of `in` are filled).
  void compute_tendencies(const State& in, Tendencies& tend, real dt_full);

  /// Exposed for unit tests: given base state s0, stage input `in`, and its
  /// explicit tendencies, perform the backward-Euler vertical solve and
  /// write the stage result to `out` (dts = stage step).  `out` may alias
  /// `in` (step() updates its one RK scratch in place): only in.rhot is
  /// read, and each column's in.rhot is read before that column is
  /// written.  Writes interior columns only.
  void vertical_implicit(const State& s0, const State& in,
                         const Tendencies& tend, real dts, State& out);

 private:
  void fill_halos(State& s) const;
  void fill_derived_halos();
  void compute_derived(const State& in, Tendencies& tend);
  void hyperdiffusion(const State& in, Tendencies& tend, real nu4);

  const Grid& grid_;
  const ReferenceState& ref_;
  DynParams params_;
  std::vector<real> pref_;  ///< reference pressure consistent with our EOS
  std::vector<real> spfac_; ///< per-face sponge coefficient s^2/tau (nz+1)

  // Derived fields recomputed each stage (with halos).
  RField3D ufc_;    ///< u at x-faces
  RField3D vfc_;    ///< v at y-faces
  RField3D wfc_;    ///< w at z-faces (nz+1)
  RField3D th_;     ///< potential temperature at centers
  RField3D prs_;    ///< full pressure at centers
  RField3D div_;    ///< 3-D divergence of momentum at centers
  RField3D lap_;    ///< scratch Laplacian for the 4th-order filter

  // Flux-once plane buffers: every advective face flux is computed once
  // into a buffer and differenced, instead of twice per cell.
  RField3D fxs_;    ///< x-direction flux plane (nz levels)
  RField3D fys_;    ///< y-direction flux plane (nz levels)
  RField3D fxw_;    ///< x-direction flux plane at z-faces (nz+1 levels)
  RField3D fyw_;    ///< y-direction flux plane at z-faces (nz+1 levels)
  RField3D qs_;     ///< tracer mixing ratio q = rhoq/dens incl. halo

  // RK scratch: every stage after the first updates it in place.
  State stage_;
  Tendencies tend_;
};

/// Add a Gaussian warm (or cold) bubble to theta: the classic trigger for an
/// idealized convective cell.  amplitude in K; radii in meters.
void add_thermal_bubble(State& s, const Grid& g, real x0, real y0, real z0,
                        real rh, real rv, real amplitude);

/// Add a moisture anomaly (fractional RH increase) in a Gaussian blob.
void add_moisture_anomaly(State& s, const Grid& g, real x0, real y0, real z0,
                          real rh, real rv, real dq);

}  // namespace bda::scale
