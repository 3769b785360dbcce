// Single-moment 6-category bulk cloud microphysics.
//
// Follows the structure of Tomita (2008), the scheme the paper runs
// (Table 3): water vapor (qv), cloud water (qc), rain (qr), cloud ice (qi),
// snow (qs) and graupel (qg).  Processes: saturation adjustment
// (condensation/evaporation of cloud, deposition/sublimation of ice),
// warm-rain autoconversion and accretion, rain evaporation, ice-phase
// conversions (freezing, riming, aggregation, graupel production), melting,
// and sedimentation with category-dependent terminal velocities.  Rate
// coefficients are the standard single-moment bulk values; they are exposed
// in MicroParams so the sensitivity benches can sweep them.
//
// Mass accounting: phase changes move mass between rhoq categories and
// deposit latent heat into rhot; sedimentation moves condensate mass
// downward through cell faces and removes it (and the same mass from total
// density) at the surface, accumulating in `accumulated_precip`.
#pragma once

#include "scale/grid.hpp"
#include "scale/state.hpp"
#include "util/field.hpp"

namespace bda::scale {

struct MicroParams {
  bool ice_enabled = true;    ///< cold-phase processes on/off (ablation)
  real qc_auto_threshold = 1.0e-3f;  ///< cloud->rain autoconversion onset
  real auto_rate = 1.0e-3f;          ///< [1/s]
  real accr_rate = 2.2f;             ///< rain collecting cloud [..]
  real evap_rate = 0.3f;             ///< rain evaporation coefficient
  real qi_auto_threshold = 0.6e-3f;  ///< ice->snow onset
  real ice_auto_rate = 1.0e-3f;      ///< [1/s]
  real rime_rate = 1.5f;             ///< snow/graupel collecting cloud
  real melt_rate = 2.0e-3f;          ///< [1/s/K]
  real freeze_rate = 1.0e-3f;        ///< rain freezing to graupel [1/s/K]
  real dep_rate = 2.0e-3f;           ///< ice/snow deposition coefficient
  real vt_rain_coef = 36.34f;        ///< Vr = c (rho qr)^0.1364 sqrt(rho0/rho)
  real vt_snow = 1.0f;               ///< [m/s]
  real vt_graupel_coef = 10.0f;      ///< Vg = c (rho qg)^0.125
  real vt_ice = 0.3f;                ///< [m/s]
  real vt_max = 12.0f;               ///< cap on any terminal velocity [m/s]
};

class Microphysics {
 public:
  Microphysics(const Grid& grid, MicroParams params = {});

  /// Apply all microphysical processes over dt (operator split from the
  /// dynamics).  Updates rhoq, rhot (latent heat), dens (precipitation
  /// mass flux out of the column) in place.
  void step(State& s, real dt);

  /// Sedimentation only (no phase changes) — exposed so tests and the
  /// fall-speed ablation can isolate the precipitation flux.
  void sediment_only(State& s, real dt) { sedimentation(s, dt); }

  /// Accumulated surface precipitation since construction [mm].
  const RField2D& accumulated_precip() const { return accum_precip_; }
  /// Precipitation rate of the last step [mm/h].
  const RField2D& last_rate() const { return last_rate_; }

  const MicroParams& params() const { return params_; }

 private:
  void phase_changes(State& s, real dt);
  void sedimentation(State& s, real dt);

  const Grid& grid_;
  MicroParams params_;
  RField2D accum_precip_;
  RField2D last_rate_;
  real dzmin_ = 0;  ///< thinnest layer (fall-CFL sub-stepping), grid const
};

/// Simulated radar reflectivity [dBZ] at a cell, from the precipitating
/// categories (Stoelinga-2005-style power laws).  Shared by the radar
/// forward operator, the verification module and the product writer.
real cell_reflectivity_dbz(const State& s, idx i, idx j, idx k);

/// Fill a 3-D field with reflectivity (interior only).
void reflectivity_field(const State& s, RField3D& out);

/// Mass-weighted hydrometeor fall speed at a cell [m/s, positive downward];
/// enters the Doppler-velocity forward operator.
real cell_fall_speed(const State& s, const MicroParams& p, idx i, idx j,
                     idx k);

}  // namespace bda::scale
