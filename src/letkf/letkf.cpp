#include "letkf/letkf.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "letkf/column_solver.hpp"
#include "letkf/letkf_core.hpp"

namespace bda::letkf {

Letkf::Letkf(const scale::Grid& grid, LetkfConfig cfg)
    : grid_(grid), cfg_(cfg) {}

std::vector<real> Letkf::member_hx(const scale::State& member,
                                   const ObsVector& obs_in,
                                   const ObsOperator& op) {
  std::vector<real> hx(obs_in.size());
  for (std::size_t n = 0; n < obs_in.size(); ++n)
    hx[n] = op.apply(member, obs_in[n]);
  return hx;
}

PreparedObs Letkf::prepare(const ObsVector& obs_in,
                           const std::vector<real>& hx,
                           std::size_t k) const {
  PreparedObs prep;
  prep.stats.n_obs_in = obs_in.size();
  const std::size_t n_all = obs_in.size();

  // Ensemble-mean H(x) and innovation per obs; gross-error QC drops
  // outliers (clear-air reflectivity reports are exempt).
  prep.obs.reserve(n_all);
  std::vector<std::size_t> keep;
  double sum_abs_inno = 0.0;
  for (std::size_t n = 0; n < n_all; ++n) {
    real mean = 0;
    for (std::size_t m = 0; m < k; ++m) mean += hx[n * k + m];
    mean /= real(k);
    const real inno = obs_in[n].value - mean;
    const real thresh = obs_in[n].type == ObsType::kReflectivity
                            ? cfg_.gross_refl
                            : cfg_.gross_dopp;
    const bool clear_air_report =
        obs_in[n].type == ObsType::kReflectivity &&
        obs_in[n].value < cfg_.clear_air_below;
    if (!clear_air_report && std::abs(inno) > thresh) {
      ++prep.stats.n_obs_qc;
      continue;
    }
    keep.push_back(n);
    prep.obs.push_back(obs_in[n]);
    prep.ymean.push_back(mean);
    sum_abs_inno += double(std::abs(inno));
  }
  if (prep.obs.empty()) return prep;
  prep.stats.mean_abs_innovation = sum_abs_inno / double(prep.obs.size());

  // Compact observation-space perturbations for kept obs: yp[n*k + m].
  const std::size_t n_obs = prep.obs.size();
  prep.yp.resize(n_obs * k);
  for (std::size_t n = 0; n < n_obs; ++n) {
    const std::size_t src = keep[n];
    for (std::size_t m = 0; m < k; ++m)
      prep.yp[n * k + m] = hx[src * k + m] - prep.ymean[n];
  }

  // Zero-spread marks: rows analyze_window may leave out of the Gram and
  // projection without moving a bit (letkf::zero_spread).  The skip is
  // exact only for a finite innovation and a finite rinv = w / error^2
  // (w <= 1), so a non-finite one keeps its row and poisons the solve as
  // it always did.
  prep.zero_spread.resize(n_obs);
  for (std::size_t n = 0; n < n_obs; ++n) {
    const Observation& o = prep.obs[n];
    prep.zero_spread[n] =
        zero_spread(&prep.yp[n * k], k) &&
        std::isfinite(o.value - prep.ymean[n]) &&
        std::isfinite(real(1) / (o.error * o.error));
  }

  // Innovation-consistency moments (Desroziers): feed AdaptiveInflation.
  {
    double d2 = 0, rr = 0, hh = 0;
    for (std::size_t n = 0; n < n_obs; ++n) {
      const double d = double(prep.obs[n].value) - double(prep.ymean[n]);
      d2 += d * d;
      rr += double(prep.obs[n].error) * double(prep.obs[n].error);
      double var = 0;
      for (std::size_t m = 0; m < k; ++m)
        var += double(prep.yp[n * k + m]) * double(prep.yp[n * k + m]);
      hh += var / double(k - 1);
    }
    prep.stats.moments.n_obs = n_obs;
    prep.stats.moments.mean_innov2 = d2 / double(n_obs);
    prep.stats.moments.mean_obs_var = rr / double(n_obs);
    prep.stats.moments.mean_ens_var = hh / double(n_obs);
  }
  return prep;
}

WindowTally Letkf::analyze_window(const PreparedObs& prep,
                                  const EnsembleSlab& slab, idx i_lo,
                                  idx i_hi, idx j_lo, idx j_hi) const {
  const std::size_t k = slab.members.size();
  const ObsVector& obs = prep.obs;
  const std::vector<real>& ymean = prep.ymean;
  const std::vector<real>& yp = prep.yp;
  WindowTally tally;
  if (k < 2 || obs.empty() || i_lo >= i_hi || j_lo >= j_hi) return tally;
  check_obs_key_range(obs.size());

  const real cutoff_h = 2 * cfg_.hloc;
  const real cutoff_v = 2 * cfg_.vloc;
  ObsIndex index(obs, cutoff_h);

  const idx nz = grid_.nz();
  std::vector<idx> levels;  // the analysed levels (Table 2 height range)
  for (idx kk = 0; kk < nz; ++kk) {
    const real zc = grid_.zc(kk);
    if (zc >= cfg_.z_min && zc <= cfg_.z_max) levels.push_back(kk);
  }

  // The window's reach: every obs a column of the window can rank.  Reach
  // position v ascends with the obs index, so (distance, v) keys keep the
  // canonical (distance, index) order.
  constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> vpos(obs.size(), kNoPos);
  std::vector<std::size_t> reach;
  index.query_box(grid_.xc(i_lo), grid_.xc(i_hi - 1), grid_.yc(j_lo),
                  grid_.yc(j_hi - 1), cutoff_h, reach);
  for (std::size_t c : reach) vpos[c] = 0;
  reach.clear();
  for (std::size_t c = 0; c < obs.size(); ++c)
    if (vpos[c] != kNoPos) {
      vpos[c] = static_cast<std::uint32_t>(reach.size());
      reach.push_back(c);
    }

  // Vertical localization per (analysed level, reached obs), computed once
  // per window instead of once per column: gcv = Gaspari-Cohn(rv), zero
  // beyond the vertical cutoff, and rv^2 for the ranking distance.  Table
  // memory is 8 bytes x levels x reach, freed on return.
  const std::size_t nl = levels.size();
  const std::size_t nr = reach.size();
  std::vector<real> vgc(nl * nr), vrv2(nl * nr);

  // Each thread tallies its columns, then folds its tally into these
  // atomics.  The counts are integers on purpose: integer addition is exact
  // in any order, so neither the dynamic schedule nor the window
  // decomposition can perturb the stats (tools/bda_analyze
  // nondet-fp-reduction would flag a double).  The atomic adds, unlike an
  // OpenMP reduction, also make the end of the region a happens-before
  // edge that ThreadSanitizer sees: libgomp's join barrier is not
  // instrumented, and a large window evicts the worker stacks its
  // suppression has to match, so every access the caller makes after the
  // region would otherwise read as a race.
  std::atomic<std::size_t> grid_updated{0}, local_obs{0}, eig_fail{0},
      cache_hits{0}, weight_solves{0}, eig_batches{0};

#pragma omp parallel
  {
    WindowTally mine;
#pragma omp for collapse(2) schedule(static)
    for (std::size_t l = 0; l < nl; ++l)
      for (std::size_t v = 0; v < nr; ++v) {
        const real dz = obs[reach[v]].z - grid_.zc(levels[l]);
        const real rv = std::abs(dz) / cfg_.vloc;
        vgc[l * nr + v] =
            std::abs(dz) > cutoff_v ? real(0) : gaspari_cohn(rv);
        vrv2[l * nr + v] = rv * rv;
      }

    // One column solver per thread: the weight cache + batched eigensolver
    // workspace are reused across every column the thread analyzes.  The
    // cache resets per column (begin_column), so its hits/misses depend
    // only on the column — not on which window or thread analyzed it.
    ColumnWeightSolver<real> solver(k, static_cast<std::size_t>(nz),
                                    cfg_.rtpp_alpha, cfg_.infl_rho,
                                    cfg_.eig_max_iters);
    std::vector<std::size_t> cand;
    std::vector<std::uint32_t> cpos;  // reach position per candidate
    std::vector<real> cgh, crh2;      // horizontal GC and rh^2 per candidate
    std::vector<real> gh(nr);         // horizontal GC by reach position
    std::vector<std::uint64_t> keys;
    std::vector<real> y_loc, d_loc, rinv_loc, rinv_rows;
    std::vector<std::size_t> ids;
    std::vector<real> xb(k);
    struct LevelPlan {
      idx kk;
      std::size_t slot;
      std::size_t p;
    };
    std::vector<LevelPlan> plan;
    const std::size_t cap = static_cast<std::size_t>(cfg_.max_obs_per_grid);

#pragma omp for collapse(2) schedule(dynamic, 4)
    for (idx i = i_lo; i < i_hi; ++i)
      for (idx j = j_lo; j < j_hi; ++j) {
        cand.clear();
        index.query(grid_.xc(i), grid_.yc(j), cutoff_h, cand);
        if (cand.empty()) continue;

        // Horizontal localization once per (column, candidate).
        const std::size_t nc = cand.size();
        cpos.resize(nc);
        cgh.resize(nc);
        crh2.resize(nc);
        for (std::size_t q = 0; q < nc; ++q) {
          const auto& o = obs[cand[q]];
          const real dx = o.x - grid_.xc(i);
          const real dy = o.y - grid_.yc(j);
          const real rh = std::sqrt(dx * dx + dy * dy) / cfg_.hloc;
          const std::uint32_t v = vpos[cand[q]];
          assert(v != kNoPos);  // query_box covers every column's query
          cpos[q] = v;
          cgh[q] = gh[v] = gaspari_cohn(rh);
          crh2[q] = rh * rh;
        }

        // Pass 1 over the column: rank each level's local obs, dedupe
        // identical signatures, stage the distinct weight solves.
        solver.begin_column();
        plan.clear();
        for (std::size_t l = 0; l < nl; ++l) {
          const real* gcv = vgc.data() + l * nr;
          const real* rv2 = vrv2.data() + l * nr;

          // Rank candidate obs by localization distance; keep the nearest
          // max_obs_per_grid (Table 2) in canonical (distance, index) order.
          keys.clear();
          for (std::size_t q = 0; q < nc; ++q) {
            const std::uint32_t v = cpos[q];
            const real w = cgh[q] * gcv[v];
            if (w < real(1e-4)) continue;
            // Smaller combined normalized distance = higher priority.
            keys.push_back(pack_obs_key(crh2[q] + rv2[v], v));
          }
          if (keys.empty()) continue;
          select_nearest(keys, cap);

          const std::size_t p = keys.size();
          ids.resize(p);
          rinv_loc.resize(p);
          for (std::size_t n = 0; n < p; ++n) {
            const std::uint32_t v = obs_key_pos(keys[n]);
            const std::size_t c = reach[v];
            const real w = gh[v] * gcv[v];
            ids[n] = c;
            rinv_loc[n] = w / (obs[c].error * obs[c].error);
          }

          std::size_t slot = solver.lookup(p, ids.data(), rinv_loc.data());
          if (slot == ColumnWeightSolver<real>::npos) {
            // Cache miss: gather the observation-space perturbations and
            // innovations only now (hits skip this entirely), leaving out
            // the zero-spread rows, which cannot change a bit of the solve.
            y_loc.resize(p * k);
            d_loc.resize(p);
            rinv_rows.resize(p);
            std::size_t rows = 0;
            for (std::size_t n = 0; n < p; ++n) {
              const std::size_t c = ids[n];
              if (prep.zero_spread[c]) continue;
              d_loc[rows] = obs[c].value - ymean[c];
              rinv_rows[rows] = rinv_loc[n];
              std::copy_n(&yp[c * k], k, &y_loc[rows * k]);
              ++rows;
            }
            slot = solver.insert(p, ids.data(), rinv_loc.data(), rows,
                                 y_loc.data(), rinv_rows.data(), d_loc.data());
          }
          plan.push_back({levels[l], slot, p});
        }
        if (plan.empty()) continue;

        // One batched eigensolve for every distinct signature of the
        // column (KeDV-style), then weight assembly per unique slot.
        solver.solve();

        // Pass 2: apply each level's (possibly shared) weight matrix to
        // the member fields at local column (i - x0, j - y0).
        const idx li = i - slab.x0;
        const idx lj = j - slab.y0;
        for (const auto& lv : plan) {
          if (!solver.converged(lv.slot)) {
            // Non-convergence leaves the gridpoint un-analyzed; count it
            // (it used to be silently swallowed).
            ++mine.eig_fail;
            continue;
          }
          const real* W = solver.weights(lv.slot);
          const idx kk = lv.kk;
          ++mine.grid_updated;
          mine.local_obs += lv.p;

          // Apply W to every state variable at (i, j, kk).
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

          update([&](std::size_t m) { return slab.members[m]->rhot(li, lj, kk); },
                 [&](std::size_t m, real v) {
                   slab.members[m]->rhot(li, lj, kk) = v;
                 });
          update([&](std::size_t m) { return slab.members[m]->dens(li, lj, kk); },
                 [&](std::size_t m, real v) {
                   slab.members[m]->dens(li, lj, kk) = std::max(v, real(1e-3));
                 });
          for (int t = 0; t < scale::kNumTracers; ++t)
            update(
                [&](std::size_t m) {
                  return slab.members[m]->rhoq[t](li, lj, kk);
                },
                [&](std::size_t m, real v) {
                  slab.members[m]->rhoq[t](li, lj, kk) = std::max(v, real(0));
                });
          if (cfg_.update_momentum) {
            update([&](std::size_t m) {
                     return slab.members[m]->momx(li, lj, kk);
                   },
                   [&](std::size_t m, real v) {
                     slab.members[m]->momx(li, lj, kk) = v;
                   });
            update([&](std::size_t m) {
                     return slab.members[m]->momy(li, lj, kk);
                   },
                   [&](std::size_t m, real v) {
                     slab.members[m]->momy(li, lj, kk) = v;
                   });
            update([&](std::size_t m) {
                     return slab.members[m]->momz(li, lj, kk);
                   },
                   [&](std::size_t m, real v) {
                     slab.members[m]->momz(li, lj, kk) = v;
                   });
          }
        }
      }

    grid_updated += mine.grid_updated;
    local_obs += mine.local_obs;
    eig_fail += mine.eig_fail;
    cache_hits += solver.cache_hits();
    weight_solves += solver.cache_misses();
    eig_batches += solver.batches();
  }

  tally.grid_updated = grid_updated;
  tally.local_obs = local_obs;
  tally.eig_fail = eig_fail;
  tally.cache_hits = cache_hits;
  tally.weight_solves = weight_solves;
  tally.eig_batches = eig_batches;
  return tally;
}

void record_tally(const WindowTally& t, AnalysisStats& stats,
                  util::Metrics* metrics) {
  stats.n_grid_updated = t.grid_updated;
  stats.n_eig_fail = t.eig_fail;
  stats.n_weight_reuse = t.cache_hits;
  stats.n_weight_solved = t.weight_solves;
  stats.n_eig_batches = t.eig_batches;
  if (t.grid_updated)
    stats.mean_local_obs = double(t.local_obs) / double(t.grid_updated);
  if (metrics) {
    metrics->count("letkf.eig_batches", t.eig_batches);
    metrics->count("letkf.weight_cache_hit", t.cache_hits);
    metrics->count("letkf.weight_cache_miss", t.weight_solves);
    metrics->count("letkf.eig_fail", t.eig_fail);
  }
}

AnalysisStats Letkf::analyze(scale::Ensemble& ens, const ObsVector& obs_in,
                             const ObsOperator& op) const {
  const std::size_t k = static_cast<std::size_t>(ens.size());
  AnalysisStats stats;
  stats.n_obs_in = obs_in.size();
  if (k < 2 || obs_in.empty()) return stats;

  // ---- H(x) for every (obs, member): hx[n*k + m].
  const std::size_t n_all = obs_in.size();
  std::vector<real> hx(n_all * k);
#pragma omp parallel for
  for (std::size_t m = 0; m < k; ++m) {
    const std::vector<real> h =
        member_hx(ens.member(static_cast<int>(m)), obs_in, op);
    for (std::size_t n = 0; n < n_all; ++n) hx[n * k + m] = h[n];
  }

  // ---- QC + obs-space statistics.
  const PreparedObs prep = prepare(obs_in, hx, k);
  stats = prep.stats;
  if (prep.obs.empty()) return stats;

  // ---- Local analyses over the full domain as a single window.
  EnsembleSlab slab;
  for (int m = 0; m < ens.size(); ++m) slab.members.push_back(&ens.member(m));
  record_tally(analyze_window(prep, slab, 0, grid_.nx(), 0, grid_.ny()),
               stats, metrics_);

  // Refresh halos after the point-wise updates.
  for (int m = 0; m < ens.size(); ++m) ens.member(m).fill_halos_periodic();
  return stats;
}

}  // namespace bda::letkf
