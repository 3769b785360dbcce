// Dynamics kernels: flux-once plane buffers, SoA-batched vertical implicit
// solve, and `#pragma omp simd` inner loops over contiguous k-columns.  Per
// point the arithmetic expression sequence is identical to the seed
// kernels kept as the test oracle (tests/support/scale_oracle), so the
// results are bitwise-equal — bench_scale_kernels and test_kernel_parity
// enforce this (docs/SCALE_KERNELS.md).
#include "scale/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "scale/eos.hpp"
#include "scale/kernels.hpp"

namespace bda::scale {

using C = Constants<real>;

Tendencies::Tendencies(const Grid& g)
    : dens(g.nx(), g.ny(), g.nz(), Grid::kHalo),
      rhot(g.nx(), g.ny(), g.nz(), Grid::kHalo),
      momx(g.nx(), g.ny(), g.nz(), Grid::kHalo),
      momy(g.nx(), g.ny(), g.nz(), Grid::kHalo),
      momz(g.nx(), g.ny(), g.nz() + 1, Grid::kHalo) {
  for (auto& q : rhoq) q = RField3D(g.nx(), g.ny(), g.nz(), Grid::kHalo);
}

Dynamics::Dynamics(const Grid& grid, const ReferenceState& ref,
                   DynParams params)
    : grid_(grid), ref_(ref), params_(params),
      ufc_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      vfc_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      wfc_(grid.nx(), grid.ny(), grid.nz() + 1, Grid::kHalo),
      th_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      prs_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      div_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      lap_(grid.nx(), grid.ny(), grid.nz() + 1, Grid::kHalo),
      fxs_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      fys_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      fxw_(grid.nx(), grid.ny(), grid.nz() + 1, Grid::kHalo),
      fyw_(grid.nx(), grid.ny(), grid.nz() + 1, Grid::kHalo),
      qs_(grid.nx(), grid.ny(), grid.nz(), Grid::kHalo),
      stage_(grid), tend_(grid) {
  // Reference pressure consistent with our EOS: A_c must be exactly zero
  // for the resting reference state regardless of how the sounding was
  // integrated.
  pref_.resize(static_cast<std::size_t>(grid.nz()));
  for (idx k = 0; k < grid.nz(); ++k)
    pref_[k] = eos_pressure(ref.dens[k] * ref.theta[k]);
  // Sponge coefficient s^2/tau per z-face, with s exactly as the seed kernel
  // computes it so the masked subtraction stays bitwise-equal.
  spfac_.assign(static_cast<std::size_t>(grid.nz()) + 1, real(0));
  const real ztop = grid.ztop();
  for (idx kf = 0; kf <= grid.nz(); ++kf) {
    const real zf = grid.zf(kf);
    if (zf > ztop - params_.sponge_depth) {
      const real s =
          (zf - (ztop - params_.sponge_depth)) / params_.sponge_depth;
      spfac_[static_cast<std::size_t>(kf)] = s * s / params_.sponge_tau;
    }
  }
}

void Dynamics::fill_halos(State& s) const {
  if (params_.lateral_bc == LateralBc::kPeriodic)
    s.fill_halos_periodic();
  else
    s.fill_halos_clamp();
}

void Dynamics::fill_derived_halos() {
  auto fill = [this](RField3D& f) {
    if (params_.lateral_bc == LateralBc::kPeriodic)
      f.fill_halo_periodic();
    else
      f.fill_halo_clamp();
  };
  fill(ufc_);
  fill(vfc_);
  fill(wfc_);
  fill(th_);
  fill(prs_);
  fill(div_);
}

// Derived fields, with the dens tendency (horizontal mass-flux divergence)
// fused in: it reads exactly the momx/momy columns the divergence already
// touches, and both writes are independent, so the fusion is bitwise-safe.
// The pressure pass stays a separate k-loop so powf does not break the
// vectorization of the cheap expressions around it.
void Dynamics::compute_derived(const State& in, Tendencies& tend) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real rdx = real(1) / grid_.dx();
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real dc = in.dens(i, j, k);
        ufc_(i, j, k) =
            in.momx(i, j, k) / (real(0.5) * (dc + in.dens(i + 1, j, k)));
        vfc_(i, j, k) =
            in.momy(i, j, k) / (real(0.5) * (dc + in.dens(i, j + 1, k)));
        th_(i, j, k) = in.rhot(i, j, k) / dc;
        div_(i, j, k) =
            (in.momx(i, j, k) - in.momx(i - 1, j, k)) * rdx +
            (in.momy(i, j, k) - in.momy(i, j - 1, k)) * rdx +
            (in.momz(i, j, k + 1) - in.momz(i, j, k)) / grid_.dz(k);
        tend.dens(i, j, k) =
            -((in.momx(i, j, k) - in.momx(i - 1, j, k)) +
              (in.momy(i, j, k) - in.momy(i, j - 1, k))) *
            rdx;
      }
      for (idx k = 0; k < nz; ++k)
        prs_(i, j, k) = eos_pressure(in.rhot(i, j, k));
      // w at z-faces: rho interpolated between the adjacent cells.
      wfc_(i, j, 0) = 0;
      wfc_(i, j, nz) = 0;
#pragma omp simd
      for (idx kf = 1; kf < nz; ++kf) {
        const real df =
            real(0.5) * (in.dens(i, j, kf - 1) + in.dens(i, j, kf));
        wfc_(i, j, kf) = in.momz(i, j, kf) / df;
      }
    }
  fill_derived_halos();
}

void Dynamics::compute_tendencies(const State& in, Tendencies& tend,
                                  real dt_full) {
  compute_derived(in, tend);

  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real dx = grid_.dx();
  const real rdx = real(1) / dx;
  const real beta = params_.divdamp_coef * dx * dx / dt_full;
  const real f_cor = params_.f_coriolis;

  // ---- rhot: horizontal flux with 3rd-order upwind theta, flux-once. ----
  // x-faces ii = -1..nx-1 (face ii sits between cells ii and ii+1); the
  // tendency at cell i differences faces i and i-1.
#pragma omp parallel for collapse(2)
  for (idx ii = -1; ii < nx; ++ii)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m = in.momx(ii, j, k);
        fxs_(ii, j, k) = m * upwind3(th_(ii - 1, j, k), th_(ii, j, k),
                                     th_(ii + 1, j, k), th_(ii + 2, j, k), m);
      }
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx jj = -1; jj < ny; ++jj)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m = in.momy(i, jj, k);
        fys_(i, jj, k) = m * upwind3(th_(i, jj - 1, k), th_(i, jj, k),
                                     th_(i, jj + 1, k), th_(i, jj + 2, k), m);
      }
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k)
        tend.rhot(i, j, k) = -((fxs_(i, j, k) - fxs_(i - 1, j, k)) +
                               (fys_(i, j, k) - fys_(i, j - 1, k))) *
                             rdx;

  // ---- tracers: q = rhoq/dens hoisted to a plane (dividing at every
  // ---- stencil tap costs ~24 divisions per cell), then flux-once. ----
  for (int t = 0; t < kNumTracers; ++t) {
    const RField3D& rq = in.rhoq[t];
#pragma omp parallel for collapse(2)
    for (idx i = -Grid::kHalo; i < nx + Grid::kHalo; ++i)
      for (idx j = -Grid::kHalo; j < ny + Grid::kHalo; ++j)
#pragma omp simd
        for (idx k = 0; k < nz; ++k)
          qs_(i, j, k) = rq(i, j, k) / in.dens(i, j, k);
#pragma omp parallel for collapse(2)
    for (idx ii = -1; ii < nx; ++ii)
      for (idx j = 0; j < ny; ++j)
#pragma omp simd
        for (idx k = 0; k < nz; ++k) {
          const real m = in.momx(ii, j, k);
          fxs_(ii, j, k) = m * upwind3(qs_(ii - 1, j, k), qs_(ii, j, k),
                                       qs_(ii + 1, j, k), qs_(ii + 2, j, k), m);
        }
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx jj = -1; jj < ny; ++jj)
#pragma omp simd
        for (idx k = 0; k < nz; ++k) {
          const real m = in.momy(i, jj, k);
          fys_(i, jj, k) = m * upwind3(qs_(i, jj - 1, k), qs_(i, jj, k),
                                       qs_(i, jj + 1, k), qs_(i, jj + 2, k), m);
        }
#pragma omp parallel
    {
      std::vector<real> fz(static_cast<std::size_t>(nz) + 1);
#pragma omp for collapse(2)
      for (idx i = 0; i < nx; ++i)
        for (idx j = 0; j < ny; ++j) {
          fz[0] = 0;
          fz[static_cast<std::size_t>(nz)] = 0;
          if (nz >= 2) {
            {
              const real m = in.momz(i, j, 1);
              fz[1] = m * upwind1(qs_(i, j, 0), qs_(i, j, 1), m);
            }
            {
              const real m = in.momz(i, j, nz - 1);
              fz[static_cast<std::size_t>(nz - 1)] =
                  m * upwind1(qs_(i, j, nz - 2), qs_(i, j, nz - 1), m);
            }
          }
#pragma omp simd
          for (idx kf = 2; kf < nz - 1; ++kf) {
            const real m = in.momz(i, j, kf);
            fz[static_cast<std::size_t>(kf)] =
                m * upwind3(qs_(i, j, kf - 2), qs_(i, j, kf - 1),
                            qs_(i, j, kf), qs_(i, j, kf + 1), m);
          }
#pragma omp simd
          for (idx k = 0; k < nz; ++k)
            tend.rhoq[t](i, j, k) =
                -((fxs_(i, j, k) - fxs_(i - 1, j, k)) +
                  (fys_(i, j, k) - fys_(i, j - 1, k))) *
                    rdx -
                (fz[static_cast<std::size_t>(k + 1)] -
                 fz[static_cast<std::size_t>(k)]) /
                    grid_.dz(k);
        }
    }
  }

  // ---- u momentum (x-faces): x-fluxes live at cell centers ii = 0..nx,
  // ---- y-fluxes at corners (i, jf = -1..ny-1), z-fluxes per column. ----
#pragma omp parallel for collapse(2)
  for (idx ii = 0; ii <= nx; ++ii)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m =
            real(0.5) * (in.momx(ii - 1, j, k) + in.momx(ii, j, k));
        fxs_(ii, j, k) = m * upwind3(ufc_(ii - 2, j, k), ufc_(ii - 1, j, k),
                                     ufc_(ii, j, k), ufc_(ii + 1, j, k), m);
      }
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx jf = -1; jf < ny; ++jf)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m =
            real(0.5) * (in.momy(i, jf, k) + in.momy(i + 1, jf, k));
        fys_(i, jf, k) = m * upwind3(ufc_(i, jf - 1, k), ufc_(i, jf, k),
                                     ufc_(i, jf + 1, k), ufc_(i, jf + 2, k), m);
      }
#pragma omp parallel
  {
    std::vector<real> fz(static_cast<std::size_t>(nz) + 1);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        fz[0] = 0;
        fz[static_cast<std::size_t>(nz)] = 0;
        if (nz >= 2) {
          {
            const real m = real(0.5) * (in.momz(i, j, 1) + in.momz(i + 1, j, 1));
            fz[1] = m * upwind1(ufc_(i, j, 0), ufc_(i, j, 1), m);
          }
          {
            const real m = real(0.5) *
                           (in.momz(i, j, nz - 1) + in.momz(i + 1, j, nz - 1));
            fz[static_cast<std::size_t>(nz - 1)] =
                m * upwind1(ufc_(i, j, nz - 2), ufc_(i, j, nz - 1), m);
          }
        }
#pragma omp simd
        for (idx kf = 2; kf < nz - 1; ++kf) {
          const real m =
              real(0.5) * (in.momz(i, j, kf) + in.momz(i + 1, j, kf));
          fz[static_cast<std::size_t>(kf)] =
              m * upwind3(ufc_(i, j, kf - 2), ufc_(i, j, kf - 1),
                          ufc_(i, j, kf), ufc_(i, j, kf + 1), m);
        }
#pragma omp simd
        for (idx k = 0; k < nz; ++k) {
          real f = -((fxs_(i + 1, j, k) - fxs_(i, j, k))) * rdx -
                   (fys_(i, j, k) - fys_(i, j - 1, k)) * rdx -
                   (fz[static_cast<std::size_t>(k + 1)] -
                    fz[static_cast<std::size_t>(k)]) /
                       grid_.dz(k);
          f -= (prs_(i + 1, j, k) - prs_(i, j, k)) * rdx;
          f += beta * (div_(i + 1, j, k) - div_(i, j, k)) * rdx;
          if (f_cor != real(0)) {
            const real rv =
                real(0.25) * (in.momy(i, j - 1, k) + in.momy(i, j, k) +
                              in.momy(i + 1, j - 1, k) + in.momy(i + 1, j, k));
            f += f_cor * rv;
          }
          tend.momx(i, j, k) = f;
        }
      }
  }

  // ---- v momentum (y-faces), mirror of u. ----
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx jj = 0; jj <= ny; ++jj)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m =
            real(0.5) * (in.momy(i, jj - 1, k) + in.momy(i, jj, k));
        fys_(i, jj, k) = m * upwind3(vfc_(i, jj - 2, k), vfc_(i, jj - 1, k),
                                     vfc_(i, jj, k), vfc_(i, jj + 1, k), m);
      }
#pragma omp parallel for collapse(2)
  for (idx if_ = -1; if_ < nx; ++if_)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx k = 0; k < nz; ++k) {
        const real m =
            real(0.5) * (in.momx(if_, j, k) + in.momx(if_, j + 1, k));
        fxs_(if_, j, k) = m * upwind3(vfc_(if_ - 1, j, k), vfc_(if_, j, k),
                                      vfc_(if_ + 1, j, k), vfc_(if_ + 2, j, k), m);
      }
#pragma omp parallel
  {
    std::vector<real> fz(static_cast<std::size_t>(nz) + 1);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        fz[0] = 0;
        fz[static_cast<std::size_t>(nz)] = 0;
        if (nz >= 2) {
          {
            const real m = real(0.5) * (in.momz(i, j, 1) + in.momz(i, j + 1, 1));
            fz[1] = m * upwind1(vfc_(i, j, 0), vfc_(i, j, 1), m);
          }
          {
            const real m = real(0.5) *
                           (in.momz(i, j, nz - 1) + in.momz(i, j + 1, nz - 1));
            fz[static_cast<std::size_t>(nz - 1)] =
                m * upwind1(vfc_(i, j, nz - 2), vfc_(i, j, nz - 1), m);
          }
        }
#pragma omp simd
        for (idx kf = 2; kf < nz - 1; ++kf) {
          const real m =
              real(0.5) * (in.momz(i, j, kf) + in.momz(i, j + 1, kf));
          fz[static_cast<std::size_t>(kf)] =
              m * upwind3(vfc_(i, j, kf - 2), vfc_(i, j, kf - 1),
                          vfc_(i, j, kf), vfc_(i, j, kf + 1), m);
        }
#pragma omp simd
        for (idx k = 0; k < nz; ++k) {
          real f = -(fys_(i, j + 1, k) - fys_(i, j, k)) * rdx -
                   (fxs_(i, j, k) - fxs_(i - 1, j, k)) * rdx -
                   (fz[static_cast<std::size_t>(k + 1)] -
                    fz[static_cast<std::size_t>(k)]) /
                       grid_.dz(k);
          f -= (prs_(i, j + 1, k) - prs_(i, j, k)) * rdx;
          f += beta * (div_(i, j + 1, k) - div_(i, j, k)) * rdx;
          if (f_cor != real(0)) {
            const real ru =
                real(0.25) * (in.momx(i - 1, j, k) + in.momx(i, j, k) +
                              in.momx(i - 1, j + 1, k) + in.momx(i, j + 1, k));
            f -= f_cor * ru;
          }
          tend.momy(i, j, k) = f;
        }
      }
  }

  // ---- w momentum (z-faces): horizontal fluxes on the nz+1-level planes,
  // ---- vertical fluxes through cell centers per column. ----
#pragma omp parallel for collapse(2)
  for (idx if_ = -1; if_ < nx; ++if_)
    for (idx j = 0; j < ny; ++j)
#pragma omp simd
      for (idx kf = 1; kf < nz; ++kf) {
        const real m =
            real(0.5) * (in.momx(if_, j, kf - 1) + in.momx(if_, j, kf));
        fxw_(if_, j, kf) = m * upwind3(wfc_(if_ - 1, j, kf), wfc_(if_, j, kf),
                                       wfc_(if_ + 1, j, kf), wfc_(if_ + 2, j, kf),
                                       m);
      }
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx jf = -1; jf < ny; ++jf)
#pragma omp simd
      for (idx kf = 1; kf < nz; ++kf) {
        const real m =
            real(0.5) * (in.momy(i, jf, kf - 1) + in.momy(i, jf, kf));
        fyw_(i, jf, kf) = m * upwind3(wfc_(i, jf - 1, kf), wfc_(i, jf, kf),
                                      wfc_(i, jf + 1, kf), wfc_(i, jf + 2, kf),
                                      m);
      }
  const real ztop = grid_.ztop();
#pragma omp parallel
  {
    std::vector<real> fzc(static_cast<std::size_t>(nz));
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        {
          const real m = real(0.5) * (in.momz(i, j, 0) + in.momz(i, j, 1));
          fzc[0] = m * upwind1(wfc_(i, j, 0), wfc_(i, j, 1), m);
        }
        if (nz >= 2) {
          const real m =
              real(0.5) * (in.momz(i, j, nz - 1) + in.momz(i, j, nz));
          fzc[static_cast<std::size_t>(nz - 1)] =
              m * upwind1(wfc_(i, j, nz - 1), wfc_(i, j, nz), m);
        }
#pragma omp simd
        for (idx c = 1; c < nz - 1; ++c) {
          const real m = real(0.5) * (in.momz(i, j, c) + in.momz(i, j, c + 1));
          fzc[static_cast<std::size_t>(c)] =
              m * upwind3(wfc_(i, j, c - 1), wfc_(i, j, c),
                          wfc_(i, j, c + 1), wfc_(i, j, c + 2), m);
        }
        tend.momz(i, j, 0) = 0;
        tend.momz(i, j, nz) = 0;
#pragma omp simd
        for (idx kf = 1; kf < nz; ++kf) {
          real f = -(fxw_(i, j, kf) - fxw_(i - 1, j, kf)) * rdx -
                   (fyw_(i, j, kf) - fyw_(i, j - 1, kf)) * rdx -
                   (fzc[static_cast<std::size_t>(kf)] -
                    fzc[static_cast<std::size_t>(kf - 1)]) /
                       grid_.dzf(kf);
          // Rayleigh sponge near the model top damps reflected gravity
          // waves; coefficient hoisted to spfac_, guard kept identical.
          const real zf = grid_.zf(kf);
          if (zf > ztop - params_.sponge_depth)
            f -= spfac_[static_cast<std::size_t>(kf)] * in.momz(i, j, kf);
          tend.momz(i, j, kf) = f;
        }
      }
  }

  // ---- 4th-order horizontal hyperdiffusion on momenta, rhot and tracers.
  const real nu4 = params_.hyperdiff_coef * dx * dx * dx * dx / dt_full;
  if (nu4 > real(0)) hyperdiffusion(in, tend, nu4);
}

// The stencil is elementwise per (i,j,k) and the simd annotation does not
// reorder any per-point arithmetic (the oracle keeps a copy without it).
void Dynamics::hyperdiffusion(const State& in, Tendencies& tend, real nu4) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real rdx = real(1) / grid_.dx();
  auto apply = [&](const RField3D& q, RField3D& tendf, idx nlev) {
    const real rdx2 = rdx * rdx;
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
#pragma omp simd
        for (idx k = 0; k < nlev; ++k)
          lap_(i, j, k) = (q(i + 1, j, k) + q(i - 1, j, k) + q(i, j + 1, k) +
                           q(i, j - 1, k) - real(4) * q(i, j, k)) *
                          rdx2;
    if (params_.lateral_bc == LateralBc::kPeriodic)
      lap_.fill_halo_periodic();
    else
      lap_.fill_halo_clamp();
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
#pragma omp simd
        for (idx k = 0; k < nlev; ++k)
          tendf(i, j, k) -= nu4 *
                            (lap_(i + 1, j, k) + lap_(i - 1, j, k) +
                             lap_(i, j + 1, k) + lap_(i, j - 1, k) -
                             real(4) * lap_(i, j, k)) *
                            rdx2;
  };
  apply(in.momx, tend.momx, nz);
  apply(in.momy, tend.momy, nz);
  apply(in.momz, tend.momz, nz + 1);
  apply(in.rhot, tend.rhot, nz);
  for (int t = 0; t < kNumTracers; ++t) apply(in.rhoq[t], tend.rhoq[t], nz);
}

// SoA-batched vertical implicit solve: columns are processed in lanes of
// kImplicitLanes interleaved like BatchedSymEigen::solve_batch, so every
// level of the Thomas recurrence (division-heavy) runs lane-parallel.  Per
// lane the expression sequence is identical to the oracle's per-column
// solve.
void Dynamics::vertical_implicit(const State& s0, const State& in,
                                 const Tendencies& tend, real dts,
                                 State& out) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real g = C::grav;

  // Explicit-only prognostics first.
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
#pragma omp simd
      for (idx k = 0; k < nz; ++k)
        out.momx(i, j, k) = s0.momx(i, j, k) + dts * tend.momx(i, j, k);
#pragma omp simd
      for (idx k = 0; k < nz; ++k)
        out.momy(i, j, k) = s0.momy(i, j, k) + dts * tend.momy(i, j, k);
      for (int t = 0; t < kNumTracers; ++t)
#pragma omp simd
        for (idx k = 0; k < nz; ++k)
          out.rhoq[t](i, j, k) =
              s0.rhoq[t](i, j, k) + dts * tend.rhoq[t](i, j, k);
    }

  constexpr idx NB = 8;  ///< column lanes per batch
  const std::size_t szn = static_cast<std::size_t>(nz);
  const std::size_t nb = static_cast<std::size_t>(NB);
#pragma omp parallel
  {
    std::vector<real> A(szn * nb), B(szn * nb), dpdrt(szn * nb);
    std::vector<real> thf((szn + 1) * nb);
    const std::size_t rows = szn > 0 ? (szn - 1) * nb : 0;
    std::vector<real> ta(rows), tb(rows), tc(rows), td(rows), cw(rows);
#pragma omp for
    for (idx j = 0; j < ny; ++j)
      for (idx i0 = 0; i0 < nx; i0 += NB) {
        const idx nl = std::min<idx>(NB, nx - i0);
        for (idx c = 0; c < nz; ++c) {
          real* Ac = A.data() + static_cast<std::size_t>(c) * nb;
          real* Bc = B.data() + static_cast<std::size_t>(c) * nb;
          real* dpc = dpdrt.data() + static_cast<std::size_t>(c) * nb;
#pragma omp simd
          for (idx l = 0; l < nl; ++l) {
            const idx i = i0 + l;
            const real p_in = prs_(i, j, c);
            const real dp = kGammaEos * p_in / in.rhot(i, j, c);
            dpc[l] = dp;
            const real rhot_new_expl =
                s0.rhot(i, j, c) + dts * tend.rhot(i, j, c);
            Ac[l] = p_in - pref_[c] + dp * (rhot_new_expl - in.rhot(i, j, c));
            Bc[l] = s0.dens(i, j, c) + dts * tend.dens(i, j, c) - ref_.dens[c];
          }
        }
#pragma omp simd
        for (idx l = 0; l < nl; ++l) {
          thf[static_cast<std::size_t>(l)] = th_(i0 + l, j, 0);
          thf[szn * nb + static_cast<std::size_t>(l)] = th_(i0 + l, j, nz - 1);
        }
        for (idx k = 1; k < nz; ++k) {
          real* thfk = thf.data() + static_cast<std::size_t>(k) * nb;
#pragma omp simd
          for (idx l = 0; l < nl; ++l)
            thfk[l] = real(0.5) * (th_(i0 + l, j, k - 1) + th_(i0 + l, j, k));
        }

        for (idx k = 1; k < nz; ++k) {
          const std::size_t m = static_cast<std::size_t>(k - 1) * nb;
          const real dzf = grid_.dzf(k);
          const real dzl = grid_.dz(k - 1);  // cell below the face
          const real dzu = grid_.dz(k);      // cell above the face
          const real dts2 = dts * dts;
          const real* dpl = dpdrt.data() + static_cast<std::size_t>(k - 1) * nb;
          const real* dpu = dpdrt.data() + static_cast<std::size_t>(k) * nb;
          const real* thl = thf.data() + static_cast<std::size_t>(k - 1) * nb;
          const real* thk = thf.data() + static_cast<std::size_t>(k) * nb;
          const real* thu = thf.data() + static_cast<std::size_t>(k + 1) * nb;
          const real* Al = A.data() + static_cast<std::size_t>(k - 1) * nb;
          const real* Au = A.data() + static_cast<std::size_t>(k) * nb;
          const real* Bl = B.data() + static_cast<std::size_t>(k - 1) * nb;
          const real* Bu = B.data() + static_cast<std::size_t>(k) * nb;
#pragma omp simd
          for (idx l = 0; l < nl; ++l) {
            ta[m + static_cast<std::size_t>(l)] =
                -(dts2 / (dzf * dzl)) * dpl[l] * thl[l] +
                (g * dts2 * real(0.5)) / dzl;
            tb[m + static_cast<std::size_t>(l)] =
                real(1) +
                (dts2 * thk[l] / dzf) * (dpu[l] / dzu + dpl[l] / dzl) +
                (g * dts2 * real(0.5)) * (real(1) / dzu - real(1) / dzl);
            tc[m + static_cast<std::size_t>(l)] =
                -(dts2 / (dzf * dzu)) * dpu[l] * thu[l] -
                (g * dts2 * real(0.5)) / dzu;
            td[m + static_cast<std::size_t>(l)] =
                s0.momz(i0 + l, j, k) + dts * tend.momz(i0 + l, j, k) -
                (dts / dzf) * (Au[l] - Al[l]) -
                (dts * g * real(0.5)) * (Bl[l] + Bu[l]);
          }
        }
        solve_tridiagonal_batch<real>(static_cast<std::size_t>(nz - 1),
                                      static_cast<std::size_t>(nl), nb,
                                      ta.data(), tb.data(), tc.data(),
                                      td.data(), cw.data());

#pragma omp simd
        for (idx l = 0; l < nl; ++l) {
          out.momz(i0 + l, j, 0) = 0;
          out.momz(i0 + l, j, nz) = 0;
        }
        for (idx k = 1; k < nz; ++k) {
          const real* tdk = td.data() + static_cast<std::size_t>(k - 1) * nb;
#pragma omp simd
          for (idx l = 0; l < nl; ++l) out.momz(i0 + l, j, k) = tdk[l];
        }

        for (idx c = 0; c < nz; ++c) {
          const real* thl = thf.data() + static_cast<std::size_t>(c) * nb;
          const real* thu = thf.data() + static_cast<std::size_t>(c + 1) * nb;
#pragma omp simd
          for (idx l = 0; l < nl; ++l) {
            const idx i = i0 + l;
            const real xl = out.momz(i, j, c);
            const real xu = out.momz(i, j, c + 1);
            out.dens(i, j, c) =
                s0.dens(i, j, c) +
                dts * (tend.dens(i, j, c) - (xu - xl) / grid_.dz(c));
            out.rhot(i, j, c) =
                s0.rhot(i, j, c) +
                dts * (tend.rhot(i, j, c) -
                       (xu * thu[l] - xl * thl[l]) / grid_.dz(c));
          }
        }
      }
  }
}

void Dynamics::step(State& s, real dt) {
  const int ns = params_.rk_stages;
  // Stage 1 reads s; every later stage updates the one scratch in place
  // (vertical_implicit's out may alias its in).
  State* in = &s;
  for (int stage = 0; stage < ns; ++stage) {
    const real dts = dt / real(ns - stage);  // dt/3, dt/2, dt for RK3
    // Halos of the stage input must be current before stencils run.
    fill_halos(*in);
    compute_tendencies(*in, tend_, dt);
    vertical_implicit(s, *in, tend_, dts, stage_);
    in = &stage_;
  }
  if (ns > 0) std::swap(s, stage_);
  fill_halos(s);
}

void add_thermal_bubble(State& s, const Grid& g, real x0, real y0, real z0,
                        real rh, real rv, real amplitude) {
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k < s.nz; ++k) {
        const real dxr = (g.xc(i) - x0) / rh;
        const real dyr = (g.yc(j) - y0) / rh;
        const real dzr = (g.zc(k) - z0) / rv;
        const real r2 = dxr * dxr + dyr * dyr + dzr * dzr;
        if (r2 > real(9)) continue;
        const real dth = amplitude * std::exp(-r2);
        s.rhot(i, j, k) += s.dens(i, j, k) * dth;
      }
}

void add_moisture_anomaly(State& s, const Grid& g, real x0, real y0, real z0,
                          real rh, real rv, real dq) {
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k < s.nz; ++k) {
        const real dxr = (g.xc(i) - x0) / rh;
        const real dyr = (g.yc(j) - y0) / rh;
        const real dzr = (g.zc(k) - z0) / rv;
        const real r2 = dxr * dxr + dyr * dyr + dzr * dzr;
        if (r2 > real(9)) continue;
        const real th = s.theta(i, j, k);
        const real dmass = s.dens(i, j, k) * dq * std::exp(-r2);
        s.rhoq[QV](i, j, k) += dmass;
        s.dens(i, j, k) += dmass;        // vapor adds to total mass
        s.rhot(i, j, k) += th * dmass;   // keep theta unchanged
      }
}

}  // namespace bda::scale
