// Restructured (raw-speed) microphysics kernels.  The scheme is branchy and
// per-point, so unlike the dynamics the win here is not vectorization: it is
// skipping transcendental calls (pow / qsat exp) whose operands are exactly
// zero, which is the common case everywhere outside an active storm cell.
// Every skip below substitutes the IEEE-754 result the call would have
// produced for a zero operand (pow(+-0, y>0 non-odd) = +0, sqrt(-0) = -0,
// etc.), so these kernels stay bitwise identical to the seed kernels kept as
// the test oracle (tests/support/scale_oracle) — checked by
// bench_scale_kernels before timing and by test_kernel_parity
// (docs/SCALE_KERNELS.md).  The skips assume dens > 0
// (State::has_nonfinite territory otherwise).
//
// Sedimentation additionally hoists the grid-constant dzmin out of the
// column loop, walks columns through Field3D::column_ptr, and keeps the
// column scratch on the heap (the seed's real[256] arrays overflowed for
// nz > 256; the oracle carries the same fix).
#include "scale/microphysics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "scale/reference.hpp"

namespace bda::scale {

using C = Constants<real>;

namespace {
// Bit-pattern equality: distinguishes -0 from +0 (float == does not), which
// matters because the writeback dens * q preserves the sign of a zero q.
inline bool same_bits(real a, real b) {
  static_assert(sizeof(real) == sizeof(std::uint32_t));
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}
}  // namespace

Microphysics::Microphysics(const Grid& grid, MicroParams params)
    : grid_(grid), params_(params),
      accum_precip_(grid.nx(), grid.ny(), 0),
      last_rate_(grid.nx(), grid.ny(), 0) {
  // Thinnest layer for the fall-CFL sub-step count; grid-constant, and the
  // fold order matches the seed's per-column computation bitwise.
  dzmin_ = grid.dz(0);
  for (idx k = 1; k < grid.nz(); ++k) dzmin_ = std::min(dzmin_, grid.dz(k));
}

void Microphysics::step(State& s, real dt) {
  phase_changes(s, dt);
  sedimentation(s, dt);
}

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

        const real lv_fac = C::lhv / (C::cp * exner);
        const real ls_fac = C::lhs / (C::cp * exner);
        const real lf_fac = C::lhf / (C::cp * exner);

        // --- 1. Saturation adjustment, two Newton steps unrolled.  If the
        // first step leaves (qv, qc, th) bit-identical — the usual case away
        // from cloud edges, where dq folds to a signed zero — the second
        // step would recompute the identical dq and re-apply the identical
        // no-op updates, so its qsat evaluation can be skipped outright.
        {
          const real qv0 = qv, qc0 = qc, th0 = th;
          const real qsl = qsat_liquid(tem, pres);
          const real gam = real(1) + (C::lhv * C::lhv * qsl) /
                                         (C::cp * C::rvap * tem * tem);
          real dq = (qv - qsl) / gam;
          if (dq < 0) dq = std::max(dq, -qc);
          qv -= dq;
          qc += dq;
          th += lv_fac * dq;
          tem = th * exner;
          if (!(same_bits(qv, qv0) && same_bits(qc, qc0) &&
                same_bits(th, th0))) {
            const real qsl2 = qsat_liquid(tem, pres);
            const real gam2 = real(1) + (C::lhv * C::lhv * qsl2) /
                                            (C::cp * C::rvap * tem * tem);
            real dq2 = (qv - qsl2) / gam2;
            if (dq2 < 0) dq2 = std::max(dq2, -qc);
            qv -= dq2;
            qc += dq2;
            th += lv_fac * dq2;
            tem = th * exner;
          }
        }

        if (P.ice_enabled) {
          // --- 2. Cloud freezing / ice melting (no transcendentals).
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
          if (tem > C::tem00 && qi > 0) {
            qc += qi;
            th -= lf_fac * qi;
            qi = 0;
          }
          tem = th * exner;

          // --- 3. Deposition / sublimation.  With qi == qs == 0 (either
          // sign) the reference block computes dep/sub bounds of exactly
          // zero, fails both `> 0` guards, and re-assigns tem to the value
          // it already holds — so the qsat_ice and sqrt calls can be
          // skipped when both categories are zero.
          if (tem < C::tem00 && (qi != 0 || qs != 0)) {
            const real qsi = qsat_ice(tem, pres);
            const real ssi = (qv - qsi) / std::max(qsi, real(1e-8));
            if (ssi > 0) {
              const real dep = std::min(
                  qv - qsi,
                  P.dep_rate * ssi * (std::sqrt(qi) + std::sqrt(qs)) * dt);
              if (dep > 0) {
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

        // --- 4. Warm rain.  pow(+-0, 0.875) = +0, so the accretion power
        // law only needs evaluating when rain is present.
        {
          const real auto_r =
              P.auto_rate * std::max(qc - P.qc_auto_threshold, real(0)) * dt;
          const real qrp = std::max(qr, real(0));
          const real p875 =
              (qrp == 0) ? real(0) : std::pow(qrp, real(0.875));
          const real accr = P.accr_rate * qc * p875 * dt;
          const real dqr = std::min(qc, auto_r + accr);
          qc -= dqr;
          qr += dqr;
        }

        // --- 5. Rain evaporation.  The reference evaluates qsat_liquid
        // unconditionally and then requires qr > 0; hoisting the guard skips
        // the qsat in every rain-free cell without touching any state the
        // reference would have changed.
        if (qr > 0) {
          const real qsl = qsat_liquid(tem, pres);
          if (qv < qsl) {
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
          // --- 6. Ice -> snow autoconversion.
          {
            const real conv =
                P.ice_auto_rate * std::max(qi - P.qi_auto_threshold, real(0)) *
                dt;
            const real d = std::min(qi, conv);
            qi -= d;
            qs += d;
          }
          // --- 7..9. Riming / rain freezing / graupel collection: the pow
          // calls already sit behind `q > 0` guards in the reference.
          if (tem < C::tem00 && qc > 0 && qs > 0) {
            const real rime = std::min(qc, P.rime_rate * qc *
                                               std::pow(qs, real(0.875)) * dt);
            qc -= rime;
            const real to_g = (qs > real(1e-3)) ? real(0.5) * rime : real(0);
            qs += rime - to_g;
            qg += to_g;
            th += lf_fac * rime;
          }
          if (tem < C::tem00 && qr > 0) {
            const real frz = std::min(
                qr, P.freeze_rate * (C::tem00 - tem) * qr * dt);
            qr -= frz;
            qg += frz;
            th += lf_fac * frz;
          }
          if (tem < C::tem00 && qc > 0 && qg > 0) {
            const real coll = std::min(
                qc, P.rime_rate * qc * std::pow(qg, real(0.875)) * dt);
            qc -= coll;
            qg += coll;
            th += lf_fac * coll;
          }
          // --- 10. Melting.
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
  const real rho0 = real(1.28);

  last_rate_.fill(0);

#pragma omp parallel
  {
    std::vector<real> vt(static_cast<std::size_t>(nz));
    std::vector<real> flux(static_cast<std::size_t>(nz) + 1);
#pragma omp for collapse(2)
    for (idx i = 0; i < nx; ++i)
      for (idx j = 0; j < ny; ++j) {
        const int cats[4] = {QR, QI, QS, QG};
        real* de = s.dens.column_ptr(i, j);
        real* rt = s.rhot.column_ptr(i, j);
        for (int c = 0; c < 4; ++c) {
          const int t = cats[c];
          real* rq = s.rhoq[t].column_ptr(i, j);
          // Terminal velocities.  pow(+-0, y>0) = +0 and the coefficient
          // chain keeps the sign, so the power laws (QR, QG) are skipped for
          // empty cells; vt = min(+0, vt_max) = +0 either way.
          real vmax = 0;
          for (idx k = 0; k < nz; ++k) {
            const real rhoq = std::max(rq[k], real(0));
            real v = 0;
            if (t == QR)
              v = (rhoq == 0)
                      ? real(0)
                      : P.vt_rain_coef * std::pow(rhoq, real(0.1364)) *
                            std::sqrt(rho0 / de[k]);
            else if (t == QS)
              v = P.vt_snow;
            else if (t == QG)
              v = (rhoq == 0)
                      ? real(0)
                      : P.vt_graupel_coef * std::pow(rhoq, real(0.125));
            else
              v = P.vt_ice;
            vt[static_cast<std::size_t>(k)] = std::min(v, P.vt_max);
            vmax = std::max(vmax, vt[static_cast<std::size_t>(k)]);
          }
          const int nsub =
              std::max(1, static_cast<int>(std::ceil(vmax * dt / dzmin_)));
          const real dts = dt / real(nsub);
          for (int sub = 0; sub < nsub; ++sub) {
            flux[static_cast<std::size_t>(nz)] = 0;
            for (idx k = 0; k < nz; ++k)
              flux[static_cast<std::size_t>(k)] =
                  vt[static_cast<std::size_t>(k)] * std::max(rq[k], real(0));
            real out_bottom = flux[0] * dts;
            for (idx k = 0; k < nz; ++k) {
              const real in_from_above =
                  (k + 1 < nz) ? flux[static_cast<std::size_t>(k + 1)]
                               : real(0);
              const real d =
                  dts * (in_from_above - flux[static_cast<std::size_t>(k)]) /
                  grid_.dz(k);
              rq[k] += d;
              de[k] += d;
              rt[k] += d * (rt[k] / (de[k] - d));
            }
            accum_precip_(i, j) += out_bottom;
            last_rate_(i, j) += out_bottom * (real(3600) / dt);
          }
        }
      }
  }
}

real cell_reflectivity_dbz(const State& s, idx i, idx j, idx k) {
  // Stoelinga (2005)-style equivalent reflectivity from the precipitating
  // categories; Z in mm^6/m^3 with rho*q in kg/m^3.
  const real rqr = std::max(s.rhoq[QR](i, j, k), real(0));
  const real rqs = std::max(s.rhoq[QS](i, j, k), real(0));
  const real rqg = std::max(s.rhoq[QG](i, j, k), real(0));
  const double z = 3.63e9 * std::pow(double(rqr), 1.75) +
                   9.80e8 * std::pow(double(rqs), 1.75) +
                   4.33e10 * std::pow(double(rqg), 1.75);
  const double dbz = 10.0 * std::log10(std::max(z, 1e-2));
  return real(dbz);
}

void reflectivity_field(const State& s, RField3D& out) {
  for (idx i = 0; i < s.nx; ++i)
    for (idx j = 0; j < s.ny; ++j)
      for (idx k = 0; k < s.nz; ++k)
        out(i, j, k) = cell_reflectivity_dbz(s, i, j, k);
}

real cell_fall_speed(const State& s, const MicroParams& p, idx i, idx j,
                     idx k) {
  const real rho0 = real(1.28);
  const real dens = s.dens(i, j, k);
  const real rqr = std::max(s.rhoq[QR](i, j, k), real(0));
  const real rqs = std::max(s.rhoq[QS](i, j, k), real(0));
  const real rqg = std::max(s.rhoq[QG](i, j, k), real(0));
  const real total = rqr + rqs + rqg;
  if (total < real(1e-8)) return 0;
  const real vr = std::min(
      p.vt_rain_coef * std::pow(rqr, real(0.1364)) * std::sqrt(rho0 / dens),
      p.vt_max);
  const real vg =
      std::min(p.vt_graupel_coef * std::pow(rqg, real(0.125)), p.vt_max);
  return (vr * rqr + p.vt_snow * rqs + vg * rqg) / total;
}

}  // namespace bda::scale
