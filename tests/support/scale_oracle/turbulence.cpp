// Seed (pre-raw-speed-pass) turbulence kernels, the oracle for
// src/scale/turbulence.cpp (scale_oracle.hpp).  Halos follow the lateral
// BC; the seed always clamped them, breaking periodic shift-equivariance.
#include <algorithm>
#include <cmath>

#include "scale_oracle.hpp"

namespace bda::scale::oracle {

Turbulence::Turbulence(const Grid& grid, TurbParams params, LateralBc bc)
    : grid_(grid), params_(params), bc_(bc),
      km_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo) {}

void Turbulence::compute_viscosity(const State& s) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const real rdx = real(1) / grid_.dx();
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        // Deformation from centered differences of cell-center velocities.
        const real dudx = (s.u(i + 1, j, k) - s.u(i - 1, j, k)) * rdx * 0.5f;
        const real dvdy = (s.v(i, j + 1, k) - s.v(i, j - 1, k)) * rdx * 0.5f;
        const real dudy = (s.u(i, j + 1, k) - s.u(i, j - 1, k)) * rdx * 0.5f;
        const real dvdx = (s.v(i + 1, j, k) - s.v(i - 1, j, k)) * rdx * 0.5f;
        real dudz = 0, dvdz = 0, dwdz = 0;
        if (k > 0 && k + 1 < nz) {
          const real rdz = real(1) / (grid_.zc(k + 1) - grid_.zc(k - 1));
          dudz = (s.u(i, j, k + 1) - s.u(i, j, k - 1)) * rdz;
          dvdz = (s.v(i, j, k + 1) - s.v(i, j, k - 1)) * rdz;
          dwdz = (s.w(i, j, k + 1) - s.w(i, j, k - 1)) * rdz;
        }
        const real s2 = 2 * (dudx * dudx + dvdy * dvdy + dwdz * dwdz) +
                        (dudy + dvdx) * (dudy + dvdx) + dudz * dudz +
                        dvdz * dvdz;
        const real smag = std::sqrt(std::max(s2, real(0)));
        const real delta = std::cbrt(grid_.dx() * grid_.dx() * grid_.dz(k));
        const real cs_d = params_.cs * delta;
        km_(i, j, k) = std::min(cs_d * cs_d * smag, params_.k_max);
      }
  if (bc_ == LateralBc::kPeriodic)
    km_.fill_halo_periodic();
  else
    km_.fill_halo_clamp();
}

void Turbulence::step(State& s, real dt) {
  compute_viscosity(s);
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const real rdx2 = real(1) / (grid_.dx() * grid_.dx());
  const real kh_fac = real(1) / params_.prandtl;

  // Down-gradient diffusion of a cell-centered specific quantity
  // phi = f / dens: d(f)/dt = div(dens K grad phi).  Explicit; the
  // viscosity cap keeps the diffusion number < 1/6 at our time steps.
  auto diffuse = [&](RField3D& f, real fac) {
    // Work on a copy of phi so the update is Jacobi-style.
    RField3D phi(nx, ny, nz, Grid::kHalo);
    for (idx i = -Grid::kHalo; i < nx + Grid::kHalo; ++i)
      for (idx j = -Grid::kHalo; j < ny + Grid::kHalo; ++j)
        for (idx k = 0; k < nz; ++k)
          phi(i, j, k) = f(i, j, k) / s.dens(i, j, k);
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
        for (idx k = 0; k < nz; ++k) {
          const real rho_k = s.dens(i, j, k) * fac;
          auto kf = [&](idx ii, idx jj, idx kk) {
            return real(0.5) * (km_(i, j, k) + km_(ii, jj, kk));
          };
          real flux = 0;
          flux += kf(i + 1, j, k) * (phi(i + 1, j, k) - phi(i, j, k)) * rdx2;
          flux -= kf(i - 1, j, k) * (phi(i, j, k) - phi(i - 1, j, k)) * rdx2;
          flux += kf(i, j + 1, k) * (phi(i, j + 1, k) - phi(i, j, k)) * rdx2;
          flux -= kf(i, j - 1, k) * (phi(i, j, k) - phi(i, j - 1, k)) * rdx2;
          if (k + 1 < nz)
            flux += kf(i, j, k + 1) * (phi(i, j, k + 1) - phi(i, j, k)) /
                    (grid_.dzf(k + 1) * grid_.dz(k));
          if (k > 0)
            flux -= kf(i, j, k - 1) * (phi(i, j, k) - phi(i, j, k - 1)) /
                    (grid_.dzf(k) * grid_.dz(k));
          f(i, j, k) += dt * rho_k * flux;
        }
  };

  // Momentum: diffuse cell-center velocities is inexact on the C grid; we
  // diffuse the staggered momenta directly treating them as located scalars
  // (acceptable for a smooth K field).
  if (bc_ == LateralBc::kPeriodic)
    s.fill_halos_periodic();
  else
    s.fill_halos_clamp();
  diffuse(s.momx, 1.0f);
  diffuse(s.momy, 1.0f);
  diffuse(s.rhot, kh_fac);
  for (int t = 0; t < kNumTracers; ++t) diffuse(s.rhoq[t], kh_fac);
}

}  // namespace bda::scale::oracle
