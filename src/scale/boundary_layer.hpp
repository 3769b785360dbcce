// Boundary-layer turbulence: prognostic-TKE vertical mixing
// (Mellor-Yamada / Nakanishi-Niino level-2.5 class, Table 3: "Boundary
// layer: MYNN level 2.5").
//
// One TKE value per cell is marched with shear production, buoyancy
// production/destruction, dissipation e^{3/2}/l and vertical self-diffusion;
// the resulting K_m/K_h mix momentum, heat and moisture column by column.
// The full NN level-2.5 stability functions are reduced to their leading
// constants — the mixing-length and TKE machinery, which set the PBL
// structure the LETKF sees, are retained.
#pragma once

#include <vector>

#include "scale/grid.hpp"
#include "scale/state.hpp"
#include "util/field.hpp"

namespace bda::scale {

struct PblParams {
  real ce = 0.19f;        ///< dissipation constant
  real sm = 0.39f;        ///< momentum stability constant
  real sh = 0.49f;        ///< heat stability constant
  real l_inf = 100.0f;    ///< asymptotic mixing length [m]
  real tke_min = 1.0e-4f; ///< TKE floor [m2/s2]
  real k_max = 200.0f;    ///< diffusivity cap [m2/s]
};

class BoundaryLayer {
 public:
  BoundaryLayer(const Grid& grid, PblParams params = {});

  /// March TKE and apply vertical mixing over dt.
  void step(State& s, real dt);

  /// Inject surface-flux forcing into the lowest-level TKE (called by the
  /// surface scheme: u*^3 / (kappa z1) shear production).
  void add_surface_production(idx i, idx j, real prod) {
    tke_(i, j, 0) += prod;
  }

  const RField3D& tke() const { return tke_; }
  RField3D& tke() { return tke_; }
  const PblParams& params() const { return params_; }

 private:
  const Grid& grid_;
  PblParams params_;
  RField3D tke_;

  // Per-level constants (grid + params, fixed at ctor).
  std::vector<real> lmix_;  ///< kappa z / (1 + kappa z / l_inf)
  std::vector<real> ldis_;  ///< max(lmix, 1) — dissipation denominator
  std::vector<real> rdzc_;  ///< 1 / (zc(k+1) - zc(k-1)), interior levels
  std::vector<real> dzup_;  ///< dzf(k+1) * dz(k) for k+1 < nz
  std::vector<real> dzdn_;  ///< dzf(k) * dz(k) for k > 0
  RField3D shear2_;         ///< (du/dz)^2 + (dv/dz)^2 before any column mixes
};

}  // namespace bda::scale
