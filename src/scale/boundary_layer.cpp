// Restructured (raw-speed) boundary-layer kernel.  Per-level constants that
// the seed recomputed per cell (mixing length, dissipation denominator,
// vertical spacings) are hoisted to the ctor; cell-center u/v/theta columns
// are hoisted so each level is derived once instead of twice (k+1/k-1 taps);
// sqrt(TKE) is shared between K_m and K_h; and the backward-Euler tridiagonal
// is factorized once per diffusivity set and the factorization reused across
// all right-hand sides that share it (K_h: theta + qv, K_m: momx + momy +
// TKE) — 2 eliminations per column instead of 5.  Per point the arithmetic
// is identical to the seed kernel kept as the test oracle
// (tests/support/scale_oracle) — bitwise-checked by bench_scale_kernels and
// test_kernel_parity (docs/SCALE_KERNELS.md).
#include "scale/boundary_layer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace bda::scale {

using C = Constants<real>;

BoundaryLayer::BoundaryLayer(const Grid& grid, PblParams params)
    : grid_(grid), params_(params),
      tke_(grid.nx(), grid.ny(), grid.nz(), 0),
      shear2_(grid.nx(), grid.ny(), grid.nz(), 0) {
  tke_.fill(params_.tke_min);
  constexpr real kappa = 0.4f;  // von Karman
  const idx nz = grid.nz();
  const auto n = static_cast<std::size_t>(nz);
  lmix_.resize(n);
  ldis_.resize(n);
  rdzc_.assign(n, real(0));
  dzup_.assign(n, real(1));
  dzdn_.assign(n, real(1));
  for (idx k = 0; k < nz; ++k) {
    const real z = grid_.zc(k);
    const real l = kappa * z / (real(1) + kappa * z / params_.l_inf);
    lmix_[static_cast<std::size_t>(k)] = l;
    ldis_[static_cast<std::size_t>(k)] = std::max(l, real(1));
    if (k > 0 && k + 1 < nz)
      rdzc_[static_cast<std::size_t>(k)] =
          real(1) / (grid_.zc(k + 1) - grid_.zc(k - 1));
    if (k + 1 < nz)
      dzup_[static_cast<std::size_t>(k)] = grid_.dzf(k + 1) * grid_.dz(k);
    if (k > 0)
      dzdn_[static_cast<std::size_t>(k)] = grid_.dzf(k) * grid_.dz(k);
  }
}

void BoundaryLayer::step(State& s, real dt) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const PblParams& P = params_;

#pragma omp parallel
  {
    const auto n = static_cast<std::size_t>(nz);
    std::vector<real> km(n), kh(n), uc(n), vc(n), thc(n);
    std::vector<real> m(n), btil(n), cvec(n), d(n);
    // Shear from cell-centre winds, which average momx(i-1)/momy(j-1): the
    // faces the neighbouring column mixes below.  Every column's shear is
    // taken before any column mixes (the barrier ending this loop), so the
    // result does not depend on loop order or thread timing.
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        for (idx k = 0; k < nz; ++k) {
          const auto ks = static_cast<std::size_t>(k);
          uc[ks] = s.u(i, j, k);
          vc[ks] = s.v(i, j, k);
        }
        real* sh = shear2_.column_ptr(i, j);
        for (idx k = 1; k + 1 < nz; ++k) {
          const auto ks = static_cast<std::size_t>(k);
          const real dudz = (uc[ks + 1] - uc[ks - 1]) * rdzc_[ks];
          const real dvdz = (vc[ks + 1] - vc[ks - 1]) * rdzc_[ks];
          sh[k] = dudz * dudz + dvdz * dvdz;
        }
      }
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        real* tk = tke_.column_ptr(i, j);
        const real* de = s.dens.column_ptr(i, j);
        real* rt = s.rhot.column_ptr(i, j);
        real* rqv = s.rhoq[QV].column_ptr(i, j);
        real* mx = s.momx.column_ptr(i, j);
        real* my = s.momy.column_ptr(i, j);

        // --- mixing coefficients from current TKE (one sqrt per cell).
        for (idx k = 0; k < nz; ++k) {
          const auto ks = static_cast<std::size_t>(k);
          const real e = std::max(tk[ks], P.tke_min);
          const real se = std::sqrt(e);
          km[ks] = std::min(P.sm * lmix_[ks] * se, P.k_max);
          kh[ks] = std::min(P.sh * lmix_[ks] * se, P.k_max);
        }
        // --- cell-center theta (each level derived once, used twice).
        for (idx k = 0; k < nz; ++k)
          thc[static_cast<std::size_t>(k)] = s.theta(i, j, k);
        // --- TKE sources: shear and buoyancy from vertical gradients.
        const real* sh = shear2_.column_ptr(i, j);
        for (idx k = 0; k < nz; ++k) {
          const auto ks = static_cast<std::size_t>(k);
          real shear2 = 0, n2 = 0;
          if (k > 0 && k + 1 < nz) {
            shear2 = sh[k];
            n2 = (C::grav / thc[ks]) * (thc[ks + 1] - thc[ks - 1]) * rdzc_[ks];
          }
          real e = std::max(tk[ks], P.tke_min);
          const real prod = km[ks] * shear2 - kh[ks] * n2;
          const real diss = P.ce * e * std::sqrt(e) / ldis_[ks];
          e += dt * (prod - diss);
          tk[ks] = std::max(e, P.tke_min);
        }

        // --- implicit vertical diffusion (backward Euler tridiagonal).
        // The row coefficients depend only on the diffusivity set, so the
        // forward elimination (m, btil) is computed once per set and the
        // per-RHS sweep applies it; identical operation sequence to the
        // seed's in-place Thomas.
        auto factor = [&](const real* kcoef) {
          for (idx k = 0; k < nz; ++k) {
            const auto ks = static_cast<std::size_t>(k);
            const real kup =
                (k + 1 < nz) ? real(0.5) * (kcoef[k] + kcoef[k + 1]) : real(0);
            const real kdn =
                (k > 0) ? real(0.5) * (kcoef[k] + kcoef[k - 1]) : real(0);
            const real cu = (k + 1 < nz) ? kup / dzup_[ks] : 0;
            const real cd = (k > 0) ? kdn / dzdn_[ks] : 0;
            const real ak = -dt * cd;
            cvec[ks] = -dt * cu;
            const real bk = real(1) + dt * (cu + cd);
            if (k == 0) {
              btil[0] = bk;
            } else {
              m[ks] = ak / btil[ks - 1];
              btil[ks] = bk - m[ks] * cvec[ks - 1];
            }
          }
        };
        auto sweep = [&](auto getter, auto setter) {
          for (idx k = 0; k < nz; ++k)
            d[static_cast<std::size_t>(k)] = getter(k);
          for (idx k = 1; k < nz; ++k) {
            const auto ks = static_cast<std::size_t>(k);
            d[ks] -= m[ks] * d[ks - 1];
          }
          d[n - 1] /= btil[n - 1];
          for (idx k = nz - 2; k >= 0; --k) {
            const auto ks = static_cast<std::size_t>(k);
            d[ks] = (d[ks] - cvec[ks] * d[ks + 1]) / btil[ks];
          }
          for (idx k = 0; k < nz; ++k)
            setter(k, d[static_cast<std::size_t>(k)]);
        };

        factor(kh.data());
        // theta (thc is unchanged by the TKE march above).
        sweep([&](idx k) { return thc[static_cast<std::size_t>(k)]; },
              [&](idx k, real v) { rt[k] = de[k] * v; });
        sweep([&](idx k) { return rqv[k] / de[k]; },
              [&](idx k, real v) { rqv[k] = de[k] * v; });
        factor(km.data());
        sweep([&](idx k) { return mx[k] / de[k]; },
              [&](idx k, real v) { mx[k] = de[k] * v; });
        sweep([&](idx k) { return my[k] / de[k]; },
              [&](idx k, real v) { my[k] = de[k] * v; });
        sweep([&](idx k) { return tk[k]; },
              [&](idx k, real v) { tk[k] = std::max(v, P.tke_min); });
      }
  }
}

}  // namespace bda::scale
