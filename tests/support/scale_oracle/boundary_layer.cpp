// Seed (pre-raw-speed-pass) boundary-layer kernel, the oracle for
// src/scale/boundary_layer.cpp (scale_oracle.hpp).  Column scratch is on
// the heap (the seed's real[256] overflowed), and the winds are read before
// any column mixes (the seed's result depended on thread timing).
#include <algorithm>
#include <cmath>
#include <vector>

#include "scale_oracle.hpp"

namespace bda::scale::oracle {

using C = Constants<real>;

void boundary_layer_step(const Grid& grid, BoundaryLayer& pbl, State& s,
                         real dt) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const PblParams& P = pbl.params();
  RField3D& tke = pbl.tke();
  constexpr real kappa = 0.4f;  // von Karman

  // Cell-centre winds average momx(i-1)/momy(j-1), which the neighbouring
  // column mixes below: read every column's before any column writes.
  RField3D uc(nx, ny, nz, 0), vc(nx, ny, nz, 0);
#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        uc(i, j, k) = s.u(i, j, k);
        vc(i, j, k) = s.v(i, j, k);
      }

#pragma omp parallel
  {
    const auto n = static_cast<std::size_t>(nz);
    std::vector<real> km(n), kh(n);
    std::vector<real> a(n), b(n), c(n), d(n);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        // --- mixing coefficients from current TKE
        for (idx k = 0; k < nz; ++k) {
          const real z = grid.zc(k);
          const real l = kappa * z / (real(1) + kappa * z / P.l_inf);
          const real e = std::max(tke(i, j, k), P.tke_min);
          km[static_cast<std::size_t>(k)] =
              std::min(P.sm * l * std::sqrt(e), P.k_max);
          kh[static_cast<std::size_t>(k)] =
              std::min(P.sh * l * std::sqrt(e), P.k_max);
        }
        // --- TKE sources: shear and buoyancy from vertical gradients
        for (idx k = 0; k < nz; ++k) {
          real shear2 = 0, n2 = 0;
          if (k > 0 && k + 1 < nz) {
            const real rdz = real(1) / (grid.zc(k + 1) - grid.zc(k - 1));
            const real dudz = (uc(i, j, k + 1) - uc(i, j, k - 1)) * rdz;
            const real dvdz = (vc(i, j, k + 1) - vc(i, j, k - 1)) * rdz;
            shear2 = dudz * dudz + dvdz * dvdz;
            const real th = s.theta(i, j, k);
            n2 = (C::grav / th) *
                 (s.theta(i, j, k + 1) - s.theta(i, j, k - 1)) * rdz;
          }
          const real z = grid.zc(k);
          const real l = kappa * z / (real(1) + kappa * z / P.l_inf);
          real e = std::max(tke(i, j, k), P.tke_min);
          const real prod = km[static_cast<std::size_t>(k)] * shear2 -
                            kh[static_cast<std::size_t>(k)] * n2;
          const real diss = P.ce * e * std::sqrt(e) / std::max(l, real(1));
          e += dt * (prod - diss);
          tke(i, j, k) = std::max(e, P.tke_min);
        }
        // --- implicit vertical diffusion of u, v, theta, qv and TKE
        // (backward Euler tridiagonal per column; unconditionally stable so
        // strong surface-layer mixing cannot blow up).
        auto mix_column = [&](auto getter, auto setter, const real* kcoef) {
          for (idx k = 0; k < nz; ++k) {
            const real dz = grid.dz(k);
            const real kup =
                (k + 1 < nz) ? real(0.5) * (kcoef[k] + kcoef[k + 1]) : real(0);
            const real kdn =
                (k > 0) ? real(0.5) * (kcoef[k] + kcoef[k - 1]) : real(0);
            const real cu = (k + 1 < nz) ? kup / (grid.dzf(k + 1) * dz) : 0;
            const real cd = (k > 0) ? kdn / (grid.dzf(k) * dz) : 0;
            a[static_cast<std::size_t>(k)] = -dt * cd;
            c[static_cast<std::size_t>(k)] = -dt * cu;
            b[static_cast<std::size_t>(k)] = real(1) + dt * (cu + cd);
            d[static_cast<std::size_t>(k)] = getter(k);
          }
          // Thomas
          for (idx k = 1; k < nz; ++k) {
            const real m = a[static_cast<std::size_t>(k)] /
                           b[static_cast<std::size_t>(k - 1)];
            b[static_cast<std::size_t>(k)] -=
                m * c[static_cast<std::size_t>(k - 1)];
            d[static_cast<std::size_t>(k)] -=
                m * d[static_cast<std::size_t>(k - 1)];
          }
          d[static_cast<std::size_t>(nz - 1)] /=
              b[static_cast<std::size_t>(nz - 1)];
          for (idx k = nz - 2; k >= 0; --k)
            d[static_cast<std::size_t>(k)] =
                (d[static_cast<std::size_t>(k)] -
                 c[static_cast<std::size_t>(k)] *
                     d[static_cast<std::size_t>(k + 1)]) /
                b[static_cast<std::size_t>(k)];
          for (idx k = 0; k < nz; ++k)
            setter(k, d[static_cast<std::size_t>(k)]);
        };

        // theta
        mix_column(
            [&](idx k) { return s.theta(i, j, k); },
            [&](idx k, real v) { s.rhot(i, j, k) = s.dens(i, j, k) * v; },
            kh.data());
        // qv
        mix_column(
            [&](idx k) { return s.rhoq[QV](i, j, k) / s.dens(i, j, k); },
            [&](idx k, real v) { s.rhoq[QV](i, j, k) = s.dens(i, j, k) * v; },
            kh.data());
        // u momentum: mix the face value to the left of the cell
        // (approximate on the staggered grid; columns are independent so
        // this is local).
        mix_column(
            [&](idx k) { return s.momx(i, j, k) / s.dens(i, j, k); },
            [&](idx k, real v) { s.momx(i, j, k) = s.dens(i, j, k) * v; },
            km.data());
        mix_column(
            [&](idx k) { return s.momy(i, j, k) / s.dens(i, j, k); },
            [&](idx k, real v) { s.momy(i, j, k) = s.dens(i, j, k) * v; },
            km.data());
        // TKE self-diffusion
        mix_column(
            [&](idx k) { return tke(i, j, k); },
            [&](idx k, real v) { tke(i, j, k) = std::max(v, P.tke_min); },
            km.data());
      }
  }
}

}  // namespace bda::scale::oracle
