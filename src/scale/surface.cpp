#include "scale/surface.hpp"

#include <algorithm>
#include <cmath>

#include "scale/reference.hpp"

namespace bda::scale {

using C = Constants<real>;

Surface::Surface(const Grid& grid, SurfaceParams params)
    : grid_(grid), params_(params), u1_(grid.nx(), grid.ny()),
      v1_(grid.nx(), grid.ny()) {}

real Surface::stability_factor_momentum(real rib) {
  // Beljaars-Holtslag (1991)-inspired damping on the stable side; Dyer-type
  // enhancement on the unstable side.  Returns a multiplier on the neutral
  // coefficient.
  if (rib >= 0) {
    const real f = real(1) / (real(1) + real(10) * rib * (real(1) + real(8) * rib));
    return std::max(f, real(0.05));
  }
  return std::sqrt(real(1) - real(16) * rib);
}

real Surface::stability_factor_heat(real rib) {
  if (rib >= 0) {
    const real f = real(1) / (real(1) + real(15) * rib * (real(1) + real(8) * rib));
    return std::max(f, real(0.03));
  }
  return std::pow(real(1) - real(16) * rib, real(0.75));
}

void Surface::step(State& s, real dt, BoundaryLayer* pbl,
                   real time_of_day_s) {
  const idx nx = s.nx, ny = s.ny;
  constexpr real kappa = 0.4f;
  const real z1 = grid_.zc(0);
  const real cdn = (kappa / std::log(z1 / params_.z0m)) *
                   (kappa / std::log(z1 / params_.z0m));
  const real chn = (kappa / std::log(z1 / params_.z0m)) *
                   (kappa / std::log(z1 / params_.z0h));
  // Diurnal skin temperature: peak at local noon (43200 s).
  const real tsfc =
      params_.t_surface +
      params_.diurnal_amp *
          std::sin(real(2.0 * M_PI) * (time_of_day_s - 21600.0f) / 86400.0f);

  // Level-0 winds average momx(i-1)/momy(j-1), which the neighbouring
  // column's drag rescales: read every column's wind before any column
  // writes, so the result is independent of loop order and thread count.
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
      u1_(i, j) = s.u(i, j, 0);
      v1_(i, j) = s.v(i, j, 0);
    }

#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
      const real dens = s.dens(i, j, 0);
      const real u1 = u1_(i, j);
      const real v1 = v1_(i, j);
      const real wind = std::max(std::sqrt(u1 * u1 + v1 * v1), real(0.1));
      const real th1 = s.theta(i, j, 0);
      const real pres = s.pressure(i, j, 0);
      const real exner = std::pow(pres / C::pres00, C::kappa);
      const real th_sfc = tsfc / exner;

      // Bulk Richardson number of the surface layer.
      const real rib = C::grav * z1 * (th1 - th_sfc) /
                       (th1 * wind * wind);
      const real cd = cdn * stability_factor_momentum(rib);
      const real ch = chn * stability_factor_heat(rib);

      // Momentum drag (implicit factor keeps it stable for large cd|U|dt/dz).
      const real drag = cd * wind / grid_.dz(0);
      const real fac = real(1) / (real(1) + dt * drag);
      s.momx(i, j, 0) *= fac;
      s.momy(i, j, 0) *= fac;

      // Sensible heat -> theta tendency of the lowest layer.
      const real wth = ch * wind * (th_sfc - th1);  // kinematic flux [K m/s]
      s.rhot(i, j, 0) += dt * dens * wth / grid_.dz(0);

      // Latent heat: evaporation limited by surface wetness.
      const real qv1 = s.rhoq[QV](i, j, 0) / dens;
      const real qsat_s = qsat_liquid(tsfc, pres);
      const real wq =
          params_.wetness * ch * wind * std::max(qsat_s - qv1, real(0));
      const real dm = dt * dens * wq / grid_.dz(0);
      s.rhoq[QV](i, j, 0) += dm;
      s.dens(i, j, 0) += dm;  // evaporated water adds mass
      s.rhot(i, j, 0) += dm * th1;

      if (pbl) {
        const real ustar = std::sqrt(cd) * wind;
        // Surface shear production integrated over the step.
        pbl->add_surface_production(
            i, j, dt * ustar * ustar * ustar / (kappa * z1));
      }
    }
}

}  // namespace bda::scale
