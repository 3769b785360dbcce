// Seed (pre-raw-speed-pass) dynamics kernels, the oracle for
// src/scale/dynamics.cpp (scale_oracle.hpp).
#include <cmath>
#include <utility>
#include <vector>

#include "scale/eos.hpp"
#include "scale/kernels.hpp"
#include "scale_oracle.hpp"

namespace bda::scale::oracle {

using C = Constants<real>;

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
      stage_in_(grid), stage_out_(grid), tend_(grid) {
  pref_.resize(static_cast<std::size_t>(grid.nz()));
  for (idx k = 0; k < grid.nz(); ++k)
    pref_[k] = eos_pressure(ref.dens[k] * ref.theta[k]);
}

void Dynamics::fill_halos(State& s) const {
  if (params_.lateral_bc == LateralBc::kPeriodic)
    s.fill_halos_periodic();
  else
    s.fill_halos_clamp();
}

void Dynamics::fill_halo(RField3D& f) const {
  if (params_.lateral_bc == LateralBc::kPeriodic)
    f.fill_halo_periodic();
  else
    f.fill_halo_clamp();
}

void Dynamics::step(State& s, real dt) {
  const int ns = params_.rk_stages;
  State* in = &s;
  for (int stage = 0; stage < ns; ++stage) {
    const real dts = dt / real(ns - stage);  // dt/3, dt/2, dt for RK3
    fill_halos(*in);
    compute_tendencies(*in, tend_, dt);
    vertical_implicit(s, *in, tend_, dts, stage_out_);
    if (stage + 1 < ns) {
      std::swap(stage_in_, stage_out_);
      in = &stage_in_;
    }
  }
  if (ns > 0) std::swap(s, stage_out_);
  fill_halos(s);
}

void Dynamics::compute_derived(const State& in) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real rdx = real(1) / grid_.dx();
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
      for (idx k = 0; k < nz; ++k) {
        const real dc = in.dens(i, j, k);
        ufc_(i, j, k) =
            in.momx(i, j, k) / (real(0.5) * (dc + in.dens(i + 1, j, k)));
        vfc_(i, j, k) =
            in.momy(i, j, k) / (real(0.5) * (dc + in.dens(i, j + 1, k)));
        th_(i, j, k) = in.rhot(i, j, k) / dc;
        prs_(i, j, k) = eos_pressure(in.rhot(i, j, k));
        div_(i, j, k) =
            (in.momx(i, j, k) - in.momx(i - 1, j, k)) * rdx +
            (in.momy(i, j, k) - in.momy(i, j - 1, k)) * rdx +
            (in.momz(i, j, k + 1) - in.momz(i, j, k)) / grid_.dz(k);
      }
      // w at z-faces: rho interpolated between the adjacent cells.
      wfc_(i, j, 0) = 0;
      wfc_(i, j, nz) = 0;
      for (idx kf = 1; kf < nz; ++kf) {
        const real df =
            real(0.5) * (in.dens(i, j, kf - 1) + in.dens(i, j, kf));
        wfc_(i, j, kf) = in.momz(i, j, kf) / df;
      }
    }
  for (RField3D* f : {&ufc_, &vfc_, &wfc_, &th_, &prs_, &div_}) fill_halo(*f);
}

void Dynamics::compute_tendencies(const State& in, Tendencies& tend,
                                  real dt_full) {
  compute_derived(in);

  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real dx = grid_.dx();
  const real rdx = real(1) / dx;
  // Divergence damping: beta * grad_h(div(rho u)); beta = alpha dx^2 / dt.
  const real beta = params_.divdamp_coef * dx * dx / dt_full;
  const real f_cor = params_.f_coriolis;

  // ---- scalar tendencies: dens (horizontal only), rhot (horizontal only),
  // ---- tracers (full 3-D, explicit).
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        // Horizontal mass-flux divergence (vertical handled implicitly).
        tend.dens(i, j, k) =
            -((in.momx(i, j, k) - in.momx(i - 1, j, k)) +
              (in.momy(i, j, k) - in.momy(i, j - 1, k))) *
            rdx;

        // rho*theta: horizontal flux with 3rd-order upwind theta.
        auto fx_th = [&](idx ii) {
          const real m = in.momx(ii, j, k);
          return m * upwind3(th_(ii - 1, j, k), th_(ii, j, k),
                             th_(ii + 1, j, k), th_(ii + 2, j, k), m);
        };
        auto fy_th = [&](idx jj) {
          const real m = in.momy(i, jj, k);
          return m * upwind3(th_(i, jj - 1, k), th_(i, jj, k),
                             th_(i, jj + 1, k), th_(i, jj + 2, k), m);
        };
        tend.rhot(i, j, k) =
            -((fx_th(i) - fx_th(i - 1)) + (fy_th(j) - fy_th(j - 1))) * rdx;
      }

  for (int t = 0; t < kNumTracers; ++t) {
    const RField3D& rq = in.rhoq[t];
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        auto q_at = [&](idx ii, idx jj, idx kk) {
          return rq(ii, jj, kk) / in.dens(ii, jj, kk);
        };
        for (idx k = 0; k < nz; ++k) {
          auto fx = [&](idx ii) {
            const real m = in.momx(ii, j, k);
            return m * upwind3(q_at(ii - 1, j, k), q_at(ii, j, k),
                               q_at(ii + 1, j, k), q_at(ii + 2, j, k), m);
          };
          auto fy = [&](idx jj) {
            const real m = in.momy(i, jj, k);
            return m * upwind3(q_at(i, jj - 1, k), q_at(i, jj, k),
                               q_at(i, jj + 1, k), q_at(i, jj + 2, k), m);
          };
          auto fz = [&](idx kf) {  // flux through z-face kf (cells kf-1|kf)
            if (kf == 0 || kf == nz) return real(0);
            const real m = in.momz(i, j, kf);
            if (kf == 1 || kf == nz - 1)
              return m * upwind1(q_at(i, j, kf - 1), q_at(i, j, kf), m);
            return m * upwind3(q_at(i, j, kf - 2), q_at(i, j, kf - 1),
                               q_at(i, j, kf), q_at(i, j, kf + 1), m);
          };
          tend.rhoq[t](i, j, k) =
              -((fx(i) - fx(i - 1)) + (fy(j) - fy(j - 1))) * rdx -
              (fz(k + 1) - fz(k)) / grid_.dz(k);
        }
      }
  }

  // ---- u momentum (x-faces) ----
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        // x-fluxes at the cell centers flanking face i.
        auto fxc = [&](idx ii) {  // flux through center ii
          const real m = real(0.5) * (in.momx(ii - 1, j, k) + in.momx(ii, j, k));
          return m * upwind3(ufc_(ii - 2, j, k), ufc_(ii - 1, j, k),
                             ufc_(ii, j, k), ufc_(ii + 1, j, k), m);
        };
        // y-fluxes at the corners (face i, y-face jf).
        auto fyc = [&](idx jf) {
          const real m = real(0.5) * (in.momy(i, jf, k) + in.momy(i + 1, jf, k));
          return m * upwind3(ufc_(i, jf - 1, k), ufc_(i, jf, k),
                             ufc_(i, jf + 1, k), ufc_(i, jf + 2, k), m);
        };
        // z-fluxes at (face i, z-face kf).
        auto fzc = [&](idx kf) {
          if (kf == 0 || kf == nz) return real(0);
          const real m =
              real(0.5) * (in.momz(i, j, kf) + in.momz(i + 1, j, kf));
          if (kf == 1 || kf == nz - 1)
            return m * upwind1(ufc_(i, j, kf - 1), ufc_(i, j, kf), m);
          return m * upwind3(ufc_(i, j, kf - 2), ufc_(i, j, kf - 1),
                             ufc_(i, j, kf), ufc_(i, j, kf + 1), m);
        };
        real f = -((fxc(i + 1) - fxc(i))) * rdx - (fyc(j) - fyc(j - 1)) * rdx -
                 (fzc(k + 1) - fzc(k)) / grid_.dz(k);
        // Horizontal pressure gradient (reference is horizontally uniform,
        // so full p works) and divergence damping.
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

  // ---- v momentum (y-faces) ----
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        auto fyc = [&](idx jj) {  // flux through center jj
          const real m = real(0.5) * (in.momy(i, jj - 1, k) + in.momy(i, jj, k));
          return m * upwind3(vfc_(i, jj - 2, k), vfc_(i, jj - 1, k),
                             vfc_(i, jj, k), vfc_(i, jj + 1, k), m);
        };
        auto fxc = [&](idx if_) {  // corner (x-face if_, face j)
          const real m = real(0.5) * (in.momx(if_, j, k) + in.momx(if_, j + 1, k));
          return m * upwind3(vfc_(if_ - 1, j, k), vfc_(if_, j, k),
                             vfc_(if_ + 1, j, k), vfc_(if_ + 2, j, k), m);
        };
        auto fzc = [&](idx kf) {
          if (kf == 0 || kf == nz) return real(0);
          const real m =
              real(0.5) * (in.momz(i, j, kf) + in.momz(i, j + 1, kf));
          if (kf == 1 || kf == nz - 1)
            return m * upwind1(vfc_(i, j, kf - 1), vfc_(i, j, kf), m);
          return m * upwind3(vfc_(i, j, kf - 2), vfc_(i, j, kf - 1),
                             vfc_(i, j, kf), vfc_(i, j, kf + 1), m);
        };
        real f = -(fyc(j + 1) - fyc(j)) * rdx - (fxc(i) - fxc(i - 1)) * rdx -
                 (fzc(k + 1) - fzc(k)) / grid_.dz(k);
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

  // ---- w momentum (z-faces): advection + sponge only; the vertical
  // ---- pressure gradient and buoyancy live in the implicit solver.
  const real ztop = grid_.ztop();
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
      tend.momz(i, j, 0) = 0;
      tend.momz(i, j, nz) = 0;
      for (idx kf = 1; kf < nz; ++kf) {
        auto fx = [&](idx if_) {  // through x-face if_ at z-face kf
          const real m =
              real(0.5) * (in.momx(if_, j, kf - 1) + in.momx(if_, j, kf));
          return m * upwind3(wfc_(if_ - 1, j, kf), wfc_(if_, j, kf),
                             wfc_(if_ + 1, j, kf), wfc_(if_ + 2, j, kf), m);
        };
        auto fy = [&](idx jf) {
          const real m =
              real(0.5) * (in.momy(i, jf, kf - 1) + in.momy(i, jf, kf));
          return m * upwind3(wfc_(i, jf - 1, kf), wfc_(i, jf, kf),
                             wfc_(i, jf + 1, kf), wfc_(i, jf + 2, kf), m);
        };
        auto fzc = [&](idx c) {  // through cell center c (faces c..c+1)
          const real m = real(0.5) * (in.momz(i, j, c) + in.momz(i, j, c + 1));
          if (c == 0)
            return m * upwind1(wfc_(i, j, c), wfc_(i, j, c + 1), m);
          if (c == nz - 1)
            return m * upwind1(wfc_(i, j, c), wfc_(i, j, c + 1), m);
          return m * upwind3(wfc_(i, j, c - 1), wfc_(i, j, c),
                             wfc_(i, j, c + 1), wfc_(i, j, c + 2), m);
        };
        real f = -(fx(i) - fx(i - 1)) * rdx - (fy(j) - fy(j - 1)) * rdx -
                 (fzc(kf) - fzc(kf - 1)) / grid_.dzf(kf);
        // Rayleigh sponge near the model top damps reflected gravity waves.
        const real zf = grid_.zf(kf);
        if (zf > ztop - params_.sponge_depth) {
          const real s = (zf - (ztop - params_.sponge_depth)) /
                         params_.sponge_depth;
          f -= (s * s / params_.sponge_tau) * in.momz(i, j, kf);
        }
        tend.momz(i, j, kf) = f;
      }
    }

  // ---- 4th-order horizontal hyperdiffusion on momenta, rhot and tracers.
  const real nu4 =
      params_.hyperdiff_coef * dx * dx * dx * dx / dt_full;
  if (nu4 > real(0)) hyperdiffusion(in, tend, nu4);
}

void Dynamics::hyperdiffusion(const State& in, Tendencies& tend, real nu4) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real rdx = real(1) / grid_.dx();
  auto apply = [&](const RField3D& q, RField3D& tendf, idx nlev) {
    const real rdx2 = rdx * rdx;
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
        for (idx k = 0; k < nlev; ++k)
          lap_(i, j, k) = (q(i + 1, j, k) + q(i - 1, j, k) + q(i, j + 1, k) +
                           q(i, j - 1, k) - real(4) * q(i, j, k)) *
                          rdx2;
    fill_halo(lap_);
#pragma omp parallel for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j)
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

void Dynamics::vertical_implicit(const State& s0, const State& in,
                                 const Tendencies& tend, real dts,
                                 State& out) {
  const idx nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const real g = C::grav;

  // Explicit-only prognostics first.
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        out.momx(i, j, k) = s0.momx(i, j, k) + dts * tend.momx(i, j, k);
        out.momy(i, j, k) = s0.momy(i, j, k) + dts * tend.momy(i, j, k);
        for (int t = 0; t < kNumTracers; ++t)
          out.rhoq[t](i, j, k) =
              s0.rhoq[t](i, j, k) + dts * tend.rhoq[t](i, j, k);
      }

  // Column-implicit solve.
  //
  // Unknowns x_k = momz at interior faces k = 1..nz-1.  Backward Euler on
  // the coupled acoustic system (cells c, faces k; face k sits between
  // cells k-1 and k):
  //   p'^+ _c = A_c - dts * dpdrt_c * (x_{c+1} thf_{c+1} - x_c thf_c)/dz_c
  //   rho'^+_c = B_c - dts * (x_{c+1} - x_c)/dz_c
  //   x_k = rhs0_k - (dts/dzf_k)(p'^+_k - p'^+_{k-1})
  //         - dts*g*(rho'^+_{k-1} + rho'^+_k)/2
  // where A_c collects all explicit contributions to the pressure
  // perturbation at the new time, B_c to the density perturbation, and
  // dpdrt = dp/d(rho theta) = gamma p / (rho theta) (so dpdrt*theta = cs^2).
#pragma omp parallel
  {
    std::vector<real> A(nz), B(nz), dpdrt(nz), thf(nz + 1);
    std::vector<real> ta(nz - 1), tb(nz - 1), tc(nz - 1), td(nz - 1);
    std::vector<real> cw(nz - 1);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        for (idx c = 0; c < nz; ++c) {
          const real p_in = prs_(i, j, c);
          dpdrt[c] = kGammaEos * p_in / in.rhot(i, j, c);
          const real rhot_new_expl =
              s0.rhot(i, j, c) + dts * tend.rhot(i, j, c);
          A[c] = p_in - pref_[c] +
                 dpdrt[c] * (rhot_new_expl - in.rhot(i, j, c));
          B[c] = s0.dens(i, j, c) + dts * tend.dens(i, j, c) - ref_.dens[c];
        }
        thf[0] = th_(i, j, 0);
        thf[nz] = th_(i, j, nz - 1);
        for (idx k = 1; k < nz; ++k)
          thf[k] = real(0.5) * (th_(i, j, k - 1) + th_(i, j, k));

        for (idx k = 1; k < nz; ++k) {
          const std::size_t m = static_cast<std::size_t>(k - 1);
          const real dzf = grid_.dzf(k);
          const real dzl = grid_.dz(k - 1);  // cell below the face
          const real dzu = grid_.dz(k);      // cell above the face
          const real dts2 = dts * dts;
          ta[m] = -(dts2 / (dzf * dzl)) * dpdrt[k - 1] * thf[k - 1] +
                  (g * dts2 * real(0.5)) / dzl;
          tb[m] = real(1) +
                  (dts2 * thf[k] / dzf) * (dpdrt[k] / dzu + dpdrt[k - 1] / dzl) +
                  (g * dts2 * real(0.5)) * (real(1) / dzu - real(1) / dzl);
          tc[m] = -(dts2 / (dzf * dzu)) * dpdrt[k] * thf[k + 1] -
                  (g * dts2 * real(0.5)) / dzu;
          td[m] = s0.momz(i, j, k) + dts * tend.momz(i, j, k) -
                  (dts / dzf) * (A[k] - A[k - 1]) -
                  (dts * g * real(0.5)) * (B[k - 1] + B[k]);
        }
        solve_tridiagonal<real>(ta, tb, tc, td, cw);

        out.momz(i, j, 0) = 0;
        out.momz(i, j, nz) = 0;
        for (idx k = 1; k < nz; ++k)
          out.momz(i, j, k) = td[static_cast<std::size_t>(k - 1)];

        for (idx c = 0; c < nz; ++c) {
          const real xl = out.momz(i, j, c);
          const real xu = out.momz(i, j, c + 1);
          out.dens(i, j, c) = s0.dens(i, j, c) +
                              dts * (tend.dens(i, j, c) - (xu - xl) / grid_.dz(c));
          out.rhot(i, j, c) =
              s0.rhot(i, j, c) +
              dts * (tend.rhot(i, j, c) -
                     (xu * thf[c + 1] - xl * thf[c]) / grid_.dz(c));
        }
      }
  }
}

}  // namespace bda::scale::oracle
