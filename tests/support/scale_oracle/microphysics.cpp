// Seed (pre-raw-speed-pass) microphysics kernels, the oracle for
// src/scale/microphysics.cpp (scale_oracle.hpp).  Sedimentation's column
// scratch is on the heap: the seed's real vt[256] / flux[257] overflowed.
#include <algorithm>
#include <cmath>
#include <vector>

#include "scale/reference.hpp"
#include "scale_oracle.hpp"

namespace bda::scale::oracle {

using C = Constants<real>;

Microphysics::Microphysics(const Grid& grid, MicroParams params)
    : grid_(grid), params_(params), accum_precip_(grid.nx(), grid.ny(), 0),
      last_rate_(grid.nx(), grid.ny(), 0) {}

void Microphysics::phase_changes(State& s, real dt) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const MicroParams& P = params_;

#pragma omp parallel for collapse(2)
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j)
      for (idx k = 0; k < nz; ++k) {
        const real dens = s.dens(i, j, k);
        real th = s.rhot(i, j, k) / dens;
        const real pres = s.pressure(i, j, k);
        const real exner = std::pow(pres / C::pres00, C::kappa);
        real tem = th * exner;

        real qv = std::max(s.rhoq[QV](i, j, k) / dens, real(0));
        real qc = std::max(s.rhoq[QC](i, j, k) / dens, real(0));
        real qr = std::max(s.rhoq[QR](i, j, k) / dens, real(0));
        real qi = std::max(s.rhoq[QI](i, j, k) / dens, real(0));
        real qs = std::max(s.rhoq[QS](i, j, k) / dens, real(0));
        real qg = std::max(s.rhoq[QG](i, j, k) / dens, real(0));

        // Latent-heat factors d(theta)/dq at constant pressure.
        const real lv_fac = C::lhv / (C::cp * exner);
        const real ls_fac = C::lhs / (C::cp * exner);
        const real lf_fac = C::lhf / (C::cp * exner);

        // --- 1. Saturation adjustment: qv <-> qc (liquid branch).  Two
        // Newton steps on the saturation deficit; the (1 + L^2 qs / ...)
        // denominator accounts for the temperature change of each step.
        for (int iter = 0; iter < 2; ++iter) {
          const real qsl = qsat_liquid(tem, pres);
          const real gam = real(1) + (C::lhv * C::lhv * qsl) /
                                         (C::cp * C::rvap * tem * tem);
          real dq = (qv - qsl) / gam;  // >0: condense, <0: evaporate cloud
          if (dq < 0) dq = std::max(dq, -qc);
          qv -= dq;
          qc += dq;
          th += lv_fac * dq;
          tem = th * exner;
        }

        if (P.ice_enabled) {
          // --- 2. Homogeneous/heterogeneous cloud freezing.
          if (tem < real(233.15) && qc > 0) {
            qi += qc;
            th += lf_fac * qc;
            qc = 0;
          } else if (tem < C::tem00 && qc > 0) {
            const real frz =
                std::min(qc, qc * P.freeze_rate * (C::tem00 - tem) * dt);
            qc -= frz;
            qi += frz;
            th += lf_fac * frz;
          }
          // Melt cloud ice immediately above freezing.
          if (tem > C::tem00 && qi > 0) {
            qc += qi;
            th -= lf_fac * qi;
            qi = 0;
          }
          tem = th * exner;

          // --- 3. Vapor deposition onto ice / snow when supersaturated
          // w.r.t. ice (and sublimation when subsaturated).
          if (tem < C::tem00) {
            const real qsi = qsat_ice(tem, pres);
            const real ssi = (qv - qsi) / std::max(qsi, real(1e-8));
            if (ssi > 0) {
              const real dep = std::min(
                  qv - qsi,
                  P.dep_rate * ssi * (std::sqrt(qi) + std::sqrt(qs)) * dt);
              if (dep > 0) {
                // Split between ice and snow by mass.
                const real wi = qi / std::max(qi + qs, real(1e-10));
                qi += dep * wi;
                qs += dep * (real(1) - wi);
                qv -= dep;
                th += ls_fac * dep;
              }
            } else if (ssi < 0) {
              const real sub = std::min(
                  qi + qs,
                  P.dep_rate * (-ssi) * (std::sqrt(qi) + std::sqrt(qs)) * dt);
              if (sub > 0) {
                const real wi = qi / std::max(qi + qs, real(1e-10));
                const real di = std::min(qi, sub * wi);
                const real ds = std::min(qs, sub - di);
                qi -= di;
                qs -= ds;
                qv += di + ds;
                th -= ls_fac * (di + ds);
              }
            }
            tem = th * exner;
          }
        }

        // --- 4. Warm rain: autoconversion + accretion (Kessler form, the
        // same structure Tomita 2008 uses for the liquid branch).
        {
          const real auto_r =
              P.auto_rate * std::max(qc - P.qc_auto_threshold, real(0)) * dt;
          const real accr =
              P.accr_rate * qc * std::pow(std::max(qr, real(0)), real(0.875)) *
              dt;
          const real dqr = std::min(qc, auto_r + accr);
          qc -= dqr;
          qr += dqr;
        }

        // --- 5. Rain evaporation in subsaturated air.
        {
          const real qsl = qsat_liquid(tem, pres);
          if (qv < qsl && qr > 0) {
            const real deficit = (qsl - qv) / qsl;
            const real evap = std::min(
                qr, P.evap_rate * deficit *
                        std::pow(qr, real(0.65)) * dt);
            qr -= evap;
            qv += evap;
            th -= lv_fac * evap;
            tem = th * exner;
          }
        }

        if (P.ice_enabled) {
          // --- 6. Ice -> snow autoconversion (aggregation).
          {
            const real conv =
                P.ice_auto_rate * std::max(qi - P.qi_auto_threshold, real(0)) *
                dt;
            const real d = std::min(qi, conv);
            qi -= d;
            qs += d;
          }
          // --- 7. Riming: snow collects cloud water; heavy riming makes
          // graupel.
          if (tem < C::tem00 && qc > 0 && qs > 0) {
            const real rime = std::min(qc, P.rime_rate * qc *
                                               std::pow(qs, real(0.875)) * dt);
            qc -= rime;
            // Half of rimed mass densifies to graupel once snow is loaded.
            const real to_g = (qs > real(1e-3)) ? real(0.5) * rime : real(0);
            qs += rime - to_g;
            qg += to_g;
            th += lf_fac * rime;  // freezing of collected liquid
          }
          // --- 8. Rain freezing to graupel below 0 C.
          if (tem < C::tem00 && qr > 0) {
            const real frz = std::min(
                qr, P.freeze_rate * (C::tem00 - tem) * qr * dt);
            qr -= frz;
            qg += frz;
            th += lf_fac * frz;
          }
          // --- 9. Graupel collects cloud (wet growth -> stays graupel).
          if (tem < C::tem00 && qc > 0 && qg > 0) {
            const real coll = std::min(
                qc, P.rime_rate * qc * std::pow(qg, real(0.875)) * dt);
            qc -= coll;
            qg += coll;
            th += lf_fac * coll;
          }
          // --- 10. Melting of snow and graupel above 0 C.
          if (tem > C::tem00) {
            const real melt_s =
                std::min(qs, P.melt_rate * (tem - C::tem00) * qs * dt);
            const real melt_g =
                std::min(qg, P.melt_rate * (tem - C::tem00) * qg * dt);
            qs -= melt_s;
            qg -= melt_g;
            qr += melt_s + melt_g;
            th -= lf_fac * (melt_s + melt_g);
          }
        }

        // Write back (mixing ratio -> partial density).
        s.rhoq[QV](i, j, k) = dens * qv;
        s.rhoq[QC](i, j, k) = dens * qc;
        s.rhoq[QR](i, j, k) = dens * qr;
        s.rhoq[QI](i, j, k) = dens * qi;
        s.rhoq[QS](i, j, k) = dens * qs;
        s.rhoq[QG](i, j, k) = dens * qg;
        s.rhot(i, j, k) = dens * th;
      }
}

void Microphysics::sedimentation(State& s, real dt) {
  const idx nx = s.nx, ny = s.ny, nz = s.nz;
  const MicroParams& P = params_;
  const real rho0 = real(1.28);  // near-surface reference density

  last_rate_.fill(0);

#pragma omp parallel
  {
    // Column scratch on the heap: the seed's fixed real[256]/real[257]
    // stack arrays overflowed for nz > 256.
    std::vector<real> vt(static_cast<std::size_t>(nz));
    std::vector<real> flux(static_cast<std::size_t>(nz) + 1);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        // Four precipitating categories; each column is swept independently.
        const int cats[4] = {QR, QI, QS, QG};
        for (int c = 0; c < 4; ++c) {
          const int t = cats[c];
          // Terminal velocity per level.
          real vmax = 0;
          for (idx k = 0; k < nz; ++k) {
            const real rhoq = std::max(s.rhoq[t](i, j, k), real(0));
            const real dens = s.dens(i, j, k);
            real v = 0;
            if (t == QR)
              v = P.vt_rain_coef * std::pow(rhoq, real(0.1364)) *
                  std::sqrt(rho0 / dens);
            else if (t == QS)
              v = P.vt_snow;
            else if (t == QG)
              v = P.vt_graupel_coef * std::pow(rhoq, real(0.125));
            else
              v = P.vt_ice;
            vt[static_cast<std::size_t>(k)] = std::min(v, P.vt_max);
            vmax = std::max(vmax, vt[static_cast<std::size_t>(k)]);
          }
          // Sub-step for the fall CFL in the thinnest layer.
          real dzmin = grid_.dz(0);
          for (idx k = 1; k < nz; ++k) dzmin = std::min(dzmin, grid_.dz(k));
          const int nsub =
              std::max(1, static_cast<int>(std::ceil(vmax * dt / dzmin)));
          const real dts = dt / real(nsub);
          for (int sub = 0; sub < nsub; ++sub) {
            // Downward upwind flux through each cell bottom face.
            flux[static_cast<std::size_t>(nz)] = 0;
            for (idx k = 0; k < nz; ++k)
              flux[static_cast<std::size_t>(k)] =
                  vt[static_cast<std::size_t>(k)] *
                  std::max(s.rhoq[t](i, j, k), real(0));
            real out_bottom = flux[0] * dts;  // mass leaving the column
            for (idx k = 0; k < nz; ++k) {
              const real in_from_above =
                  (k + 1 < nz) ? flux[static_cast<std::size_t>(k + 1)]
                               : real(0);
              const real d =
                  dts * (in_from_above - flux[static_cast<std::size_t>(k)]) /
                  grid_.dz(k);
              s.rhoq[t](i, j, k) += d;
              s.dens(i, j, k) += d;  // condensate mass is part of total density
              // Keep theta consistent: falling mass carries its theta; we use
              // the local theta so rhot/dens stays the potential temperature.
              s.rhot(i, j, k) += d * (s.rhot(i, j, k) / (s.dens(i, j, k) - d));
            }
            // Surface accumulation [mm]: kg/m2 of water = mm.
            accum_precip_(i, j) += out_bottom;
            last_rate_(i, j) += out_bottom * (real(3600) / dt);
          }
        }
      }
  }
}

}  // namespace bda::scale::oracle
