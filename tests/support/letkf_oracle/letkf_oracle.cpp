// oracle::analyze_window: the seed local analysis, level by level.
#include <cmath>

#include "letkf_oracle.hpp"

namespace bda::letkf::oracle {

WindowTally analyze_window(const scale::Grid& grid, const LetkfConfig& cfg,
                           const PreparedObs& prep, const EnsembleSlab& slab,
                           idx i_lo, idx i_hi, idx j_lo, idx j_hi) {
  const std::size_t k = slab.members.size();
  const ObsVector& obs = prep.obs;
  WindowTally tally;
  if (k < 2 || obs.empty()) return tally;

  const real cutoff_h = 2 * cfg.hloc;
  const real cutoff_v = 2 * cfg.vloc;
  const ObsIndex index(obs, cutoff_h);
  const idx nz = grid.nz();

  LetkfWorkspace<real> ws(k);
  std::vector<std::size_t> cand;
  std::vector<std::pair<real, std::size_t>> ranked;
  std::vector<real> y_loc, d_loc, rinv_loc, W(k * k), xb(k);

  for (idx i = i_lo; i < i_hi; ++i)
    for (idx j = j_lo; j < j_hi; ++j) {
      cand.clear();
      index.query(grid.xc(i), grid.yc(j), cutoff_h, cand);
      if (cand.empty()) continue;
      for (idx kk = 0; kk < nz; ++kk) {
        const real zc = grid.zc(kk);
        if (zc < cfg.z_min || zc > cfg.z_max) continue;

        ranked.clear();
        for (std::size_t c : cand) {
          const auto& o = obs[c];
          const real dz = o.z - zc;
          if (std::abs(dz) > cutoff_v) continue;
          const real dx = o.x - grid.xc(i);
          const real dy = o.y - grid.yc(j);
          const real rh = std::sqrt(dx * dx + dy * dy) / cfg.hloc;
          const real rv = std::abs(dz) / cfg.vloc;
          const real w = gaspari_cohn(rh) * gaspari_cohn(rv);
          if (w < real(1e-4)) continue;
          ranked.emplace_back(rh * rh + rv * rv, c);
        }
        if (ranked.empty()) continue;
        select_nearest(ranked,
                       static_cast<std::size_t>(cfg.max_obs_per_grid));

        const std::size_t p = ranked.size();
        y_loc.resize(p * k);
        d_loc.resize(p);
        rinv_loc.resize(p);
        for (std::size_t n = 0; n < p; ++n) {
          const std::size_t c = ranked[n].second;
          const auto& o = obs[c];
          const real dx = o.x - grid.xc(i);
          const real dy = o.y - grid.yc(j);
          const real rh = std::sqrt(dx * dx + dy * dy) / cfg.hloc;
          const real rv = std::abs(o.z - zc) / cfg.vloc;
          const real w = gaspari_cohn(rh) * gaspari_cohn(rv);
          rinv_loc[n] = w / (o.error * o.error);
          d_loc[n] = o.value - prep.ymean[c];
          std::copy_n(&prep.yp[c * k], k, &y_loc[n * k]);
        }
        if (!weights(k, p, y_loc.data(), d_loc.data(), rinv_loc.data(),
                     cfg.rtpp_alpha, cfg.infl_rho, ws, W.data())) {
          ++tally.eig_fail;
          continue;
        }
        ++tally.grid_updated;
        tally.local_obs += p;

        const idx li = i - slab.x0;
        const idx lj = j - slab.y0;
        auto update = [&](auto&& get, auto&& set) {
          real mean = 0;
          for (std::size_t m = 0; m < k; ++m) {
            xb[m] = get(m);
            mean += xb[m];
          }
          mean /= real(k);
          for (std::size_t m = 0; m < k; ++m) xb[m] -= mean;
          for (std::size_t m = 0; m < k; ++m) {
            real s = mean;
            for (std::size_t l = 0; l < k; ++l) s += xb[l] * W[l * k + m];
            set(m, s);
          }
        };
        auto field = [&](auto member_field, real floor, bool clamp) {
          update([&](std::size_t m) {
                   return member_field(*slab.members[m])(li, lj, kk);
                 },
                 [&](std::size_t m, real v) {
                   member_field(*slab.members[m])(li, lj, kk) =
                       clamp ? std::max(v, floor) : v;
                 });
        };
        field([](scale::State& s) -> RField3D& { return s.rhot; }, 0, false);
        field([](scale::State& s) -> RField3D& { return s.dens; }, real(1e-3),
              true);
        for (int t = 0; t < scale::kNumTracers; ++t)
          field([t](scale::State& s) -> RField3D& { return s.rhoq[t]; },
                real(0), true);
        if (cfg.update_momentum) {
          field([](scale::State& s) -> RField3D& { return s.momx; }, 0, false);
          field([](scale::State& s) -> RField3D& { return s.momy; }, 0, false);
          field([](scale::State& s) -> RField3D& { return s.momz; }, 0, false);
        }
      }
    }
  return tally;
}

}  // namespace bda::letkf::oracle
