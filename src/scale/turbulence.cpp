// Restructured (raw-speed) turbulence kernels: cell-center velocities are
// hoisted into plane buffers (the seed recomputed the momentum average and
// density division at every stencil tap), per-level constants (Cs*Delta)^2
// and vertical spacings are precomputed, and the Jacobi copy reuses member
// scratch instead of allocating per field per step.  Per point the
// arithmetic is identical to the seed kernels kept as the test oracle
// (tests/support/scale_oracle) — bitwise-checked by bench_scale_kernels and
// test_kernel_parity (docs/SCALE_KERNELS.md).
#include "scale/turbulence.hpp"

#include <algorithm>
#include <cmath>

namespace bda::scale {

Turbulence::Turbulence(const Grid& grid, TurbParams params, LateralBc bc)
    : grid_(grid), params_(params), bc_(bc),
      km_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      uc_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      vc_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      wc_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      phi_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo) {
  const idx nz = grid.nz();
  csd2_.resize(static_cast<std::size_t>(nz));
  rdzc_.assign(static_cast<std::size_t>(nz), real(0));
  dzup_.assign(static_cast<std::size_t>(nz), real(1));
  dzdn_.assign(static_cast<std::size_t>(nz), real(1));
  for (idx k = 0; k < nz; ++k) {
    const real delta = std::cbrt(grid_.dx() * grid_.dx() * grid_.dz(k));
    const real cs_d = params_.cs * delta;
    csd2_[static_cast<std::size_t>(k)] = cs_d * cs_d;
    if (k > 0 && k + 1 < nz)
      rdzc_[static_cast<std::size_t>(k)] =
          real(1) / (grid_.zc(k + 1) - grid_.zc(k - 1));
    if (k + 1 < nz)
      dzup_[static_cast<std::size_t>(k)] = grid_.dzf(k + 1) * grid_.dz(k);
    if (k > 0)
      dzdn_[static_cast<std::size_t>(k)] = grid_.dzf(k) * grid_.dz(k);
  }
}

void Turbulence::fill_state_halos(State& s) const {
  if (bc_ == LateralBc::kPeriodic)
    s.fill_halos_periodic();
  else
    s.fill_halos_clamp();
}

void Turbulence::fill_km_halo() {
  if (bc_ == LateralBc::kPeriodic)
    km_.fill_halo_periodic();
  else
    km_.fill_halo_clamp();
}

void Turbulence::compute_viscosity(const State& s) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const real rdx = real(1) / grid_.dx();
  // Center velocities over the interior plus a one-cell rim (the stencil
  // below reads +-1); expressions identical to State::u/v/w.
#pragma omp parallel for collapse(2)
  for (idx i = -1; i <= nx; ++i)
    for (idx j = -1; j <= ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real mx = real(0.5) * (s.momx(i - 1, j, k) + s.momx(i, j, k));
        uc_(i, j, k) = mx / s.dens(i, j, k);
        const real my = real(0.5) * (s.momy(i, j - 1, k) + s.momy(i, j, k));
        vc_(i, j, k) = my / s.dens(i, j, k);
        const real mz = real(0.5) * (s.momz(i, j, k) + s.momz(i, j, k + 1));
        wc_(i, j, k) = mz / s.dens(i, j, k);
      }
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        // Deformation from centered differences of cell-center velocities.
        const real dudx = (uc_(i + 1, j, k) - uc_(i - 1, j, k)) * rdx * 0.5f;
        const real dvdy = (vc_(i, j + 1, k) - vc_(i, j - 1, k)) * rdx * 0.5f;
        const real dudy = (uc_(i, j + 1, k) - uc_(i, j - 1, k)) * rdx * 0.5f;
        const real dvdx = (vc_(i + 1, j, k) - vc_(i - 1, j, k)) * rdx * 0.5f;
        real dudz = 0, dvdz = 0, dwdz = 0;
        if (k > 0 && k + 1 < nz) {
          const real rdz = rdzc_[static_cast<std::size_t>(k)];
          dudz = (uc_(i, j, k + 1) - uc_(i, j, k - 1)) * rdz;
          dvdz = (vc_(i, j, k + 1) - vc_(i, j, k - 1)) * rdz;
          dwdz = (wc_(i, j, k + 1) - wc_(i, j, k - 1)) * rdz;
        }
        const real s2 = 2 * (dudx * dudx + dvdy * dvdy + dwdz * dwdz) +
                        (dudy + dvdx) * (dudy + dvdx) + dudz * dudz +
                        dvdz * dvdz;
        const real smag = std::sqrt(std::max(s2, real(0)));
        km_(i, j, k) =
            std::min(csd2_[static_cast<std::size_t>(k)] * smag, params_.k_max);
      }
  fill_km_halo();
}

void Turbulence::step(State& s, real dt) {
  compute_viscosity(s);
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const real rdx2 = real(1) / (grid_.dx() * grid_.dx());
  const real kh_fac = real(1) / params_.prandtl;

  // Down-gradient diffusion of phi = f / dens (Jacobi update on the member
  // scratch copy); same arithmetic as the seed kernel's lambda.
  auto diffuse = [&](RField3D& f, real fac) {
#pragma omp parallel for collapse(2)
    for (idx i = -Grid::kHalo; i < nx + Grid::kHalo; ++i)
      for (idx j = -Grid::kHalo; j < ny + Grid::kHalo; ++j)
#pragma omp simd
        for (idx k = 0; k < nz; ++k)
          phi_(i, j, k) = f(i, j, k) / s.dens(i, j, k);
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
#pragma omp simd
        for (idx k = 0; k < nz; ++k) {
          const real rho_k = s.dens(i, j, k) * fac;
          const real kmc = km_(i, j, k);
          real flux = 0;
          flux += real(0.5) * (kmc + km_(i + 1, j, k)) *
                  (phi_(i + 1, j, k) - phi_(i, j, k)) * rdx2;
          flux -= real(0.5) * (kmc + km_(i - 1, j, k)) *
                  (phi_(i, j, k) - phi_(i - 1, j, k)) * rdx2;
          flux += real(0.5) * (kmc + km_(i, j + 1, k)) *
                  (phi_(i, j + 1, k) - phi_(i, j, k)) * rdx2;
          flux -= real(0.5) * (kmc + km_(i, j - 1, k)) *
                  (phi_(i, j, k) - phi_(i, j - 1, k)) * rdx2;
          if (k + 1 < nz)
            flux += real(0.5) * (kmc + km_(i, j, k + 1)) *
                    (phi_(i, j, k + 1) - phi_(i, j, k)) /
                    dzup_[static_cast<std::size_t>(k)];
          if (k > 0)
            flux -= real(0.5) * (kmc + km_(i, j, k - 1)) *
                    (phi_(i, j, k) - phi_(i, j, k - 1)) /
                    dzdn_[static_cast<std::size_t>(k)];
          f(i, j, k) += dt * rho_k * flux;
        }
  };

  fill_state_halos(s);
  diffuse(s.momx, 1.0f);
  diffuse(s.momy, 1.0f);
  diffuse(s.rhot, kh_fac);
  for (int t = 0; t < kNumTracers; ++t) diffuse(s.rhoq[t], kh_fac);
}

}  // namespace bda::scale
