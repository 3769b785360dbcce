// Smagorinsky-type subgrid turbulence (Table 3: "Turbulence:
// Smagorinsky-type").
//
// Eddy viscosity K = (Cs * Delta)^2 |S| from the resolved deformation,
// applied as down-gradient diffusion of momentum, heat and moisture.  At a
// 500-m grid spacing this is the dominant subgrid mixing outside the
// boundary layer (which the TKE scheme handles).
#pragma once

#include <vector>

#include "scale/dynamics.hpp"
#include "scale/grid.hpp"
#include "scale/state.hpp"
#include "util/field.hpp"

namespace bda::scale {

struct TurbParams {
  real cs = 0.18f;          ///< Smagorinsky constant
  real prandtl = 0.7f;      ///< turbulent Prandtl number (K_h = K_m / Pr)
  real k_max = 400.0f;      ///< viscosity cap [m2/s] for robustness
};

class Turbulence {
 public:
  /// `bc` selects the halo treatment for the state and viscosity fields.
  /// Pre-PR-10 this was unconditionally clamped, which silently broke
  /// shift-equivariance for periodic runs; Model/Ensemble now pass their
  /// dynamics' lateral BC.  The default keeps the historical clamp for
  /// standalone (regional-style) construction.
  Turbulence(const Grid& grid, TurbParams params = {},
             LateralBc bc = LateralBc::kClamp);

  /// Apply one diffusion step (explicit, operator-split).
  void step(State& s, real dt);

  /// Eddy viscosity of the last step (diagnostic, cell centers).
  const RField3D& k_m() const { return km_; }

  LateralBc lateral_bc() const { return bc_; }

 private:
  void compute_viscosity(const State& s);
  void fill_state_halos(State& s) const;
  void fill_km_halo();

  const Grid& grid_;
  TurbParams params_;
  LateralBc bc_;
  RField3D km_;

  // Scratch (allocation-free steady state).
  RField3D uc_, vc_, wc_;       ///< cell-center velocities incl. 1-cell rim
  RField3D phi_;                ///< Jacobi copy of the diffused quantity
  std::vector<real> csd2_;      ///< (Cs * Delta(k))^2 per level
  std::vector<real> rdzc_;      ///< 1 / (zc(k+1) - zc(k-1)), interior levels
  std::vector<real> dzup_;      ///< dzf(k+1) * dz(k) for k+1 < nz
  std::vector<real> dzdn_;      ///< dzf(k) * dz(k) for k > 0
};

}  // namespace bda::scale
