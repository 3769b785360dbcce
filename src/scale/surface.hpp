// Bulk surface fluxes, Beljaars-type (Table 3: "Surface flux:
// Beljaars-type").
//
// Monin-Obukhov similarity in bulk form: neutral exchange coefficients from
// the log law, corrected by Beljaars-Holtslag stability functions (stable
// side) and Dyer-Businger (unstable side) evaluated from the bulk
// Richardson number.  Momentum drag, sensible heat and latent heat are
// applied to the lowest model level; the friction velocity feeds TKE
// production in the boundary-layer scheme.
#pragma once

#include "scale/boundary_layer.hpp"
#include "scale/grid.hpp"
#include "scale/state.hpp"

namespace bda::scale {

struct SurfaceParams {
  real z0m = 0.1f;          ///< momentum roughness length [m] (land)
  real z0h = 0.01f;         ///< scalar roughness length [m]
  real t_surface = 303.0f;  ///< skin temperature [K]
  real wetness = 0.8f;      ///< surface moisture availability [0..1]
  real diurnal_amp = 0.0f;  ///< diurnal skin-temperature amplitude [K]
};

class Surface {
 public:
  Surface(const Grid& grid, SurfaceParams params = {});

  /// Apply surface fluxes over dt; optionally feed TKE production to `pbl`.
  /// `time_of_day_s` drives the diurnal cycle when diurnal_amp > 0.
  void step(State& s, real dt, BoundaryLayer* pbl = nullptr,
            real time_of_day_s = 43200.0f);

  /// Stability-corrected bulk transfer coefficients for given bulk
  /// Richardson number (exposed for unit tests of the Beljaars branch).
  static real stability_factor_momentum(real rib);
  static real stability_factor_heat(real rib);

 private:
  const Grid& grid_;
  SurfaceParams params_;
  RField2D u1_, v1_;  ///< level-0 winds read before any drag is applied
};

}  // namespace bda::scale
