// LETKF driver: local analyses over the full model grid.
//
// Implements the paper's <1-1> step with the Table 2 configuration:
// 1000-member LETKF (configurable), R-localization with Gaspari-Cohn
// (2 km horizontal / 2 km vertical), at most 1000 observations per grid
// point (nearest first), gross-error QC (10 dBZ / 15 m/s), RTPP covariance
// relaxation (0.95), and an analysis height range of 0.5-11 km.  Grid
// points are independent — the loop is OpenMP-parallel, mirroring the
// distributed-memory decomposition of the operational code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "letkf/adaptive_inflation.hpp"
#include "letkf/localization.hpp"
#include "letkf/obs.hpp"
#include "letkf/obsop.hpp"
#include "scale/ensemble.hpp"
#include "scale/grid.hpp"
#include "util/metrics.hpp"

namespace bda::letkf {

struct LetkfConfig {
  real hloc = 2000.0f;          ///< horizontal localization scale [m]
  real vloc = 2000.0f;          ///< vertical localization scale [m]
  int max_obs_per_grid = 1000;  ///< Table 2 cap
  real rtpp_alpha = 0.95f;      ///< relaxation-to-prior-perturbation
  real infl_rho = 1.0f;         ///< multiplicative inflation (1 = off)
  real gross_refl = 10.0f;      ///< QC |innovation| threshold [dBZ]
  real gross_dopp = 15.0f;      ///< QC |innovation| threshold [m/s]
  /// Reflectivity obs below this value are "no rain" reports; they are
  /// exempt from the gross-error check (their innovation against a
  /// spuriously raining background is legitimately huge — that is the
  /// signal, not an outlier).
  real clear_air_below = 5.0f;
  real z_min = 500.0f;          ///< analysis height range (Table 2)
  real z_max = 11000.0f;
  bool update_momentum = true;  ///< assimilate into winds as well
  /// Cap on implicit-QL sweeps per eigenvalue in the weight solve.  The
  /// default (50) never fails on the SPD LETKF matrices; lowering it is a
  /// deterministic fault-injection knob for the non-convergence accounting
  /// (AnalysisStats::n_eig_fail), mirroring jitdt's stall_after_bytes.
  int eig_max_iters = 50;
};

/// Bookkeeping of one analysis (used by benches and the workflow monitor).
struct AnalysisStats {
  std::size_t n_obs_in = 0;        ///< observations offered
  std::size_t n_obs_qc = 0;        ///< rejected by gross-error check
  std::size_t n_grid_updated = 0;  ///< grid points with >= 1 local obs
  /// Gridpoint-levels left un-analyzed because the weight eigensolve did
  /// not converge.  Always zero in practice (SPD matrices), but a non-zero
  /// value must be visible, not silently swallowed.
  std::size_t n_eig_fail = 0;
  std::size_t n_weight_reuse = 0;   ///< levels served by the column weight cache
  std::size_t n_weight_solved = 0;  ///< distinct weight solves (cache misses)
  std::size_t n_eig_batches = 0;    ///< batched eigensolver invocations
  double mean_local_obs = 0.0;     ///< average local obs per updated point
  double mean_abs_innovation = 0.0;
  /// Observation-space moments of the assimilated (post-QC) set, for
  /// innovation-consistency diagnostics and AdaptiveInflation.
  InnovationMoments moments;
};

/// Observation-space preparation (gross-error QC, mean H(x), perturbations,
/// Desroziers moments) computed once from the full H(x) table.  The sharded
/// engine replicates prepare() on every domain rank from identical hx
/// bytes, which keeps control flow (the empty-obs early return) and the
/// kept-obs set bitwise consistent across ranks without broadcasting any
/// derived state.
struct PreparedObs {
  ObsVector obs;            ///< post-QC observations
  std::vector<real> ymean;  ///< mean H(x) per kept obs
  std::vector<real> yp;     ///< obs-space perturbations, yp[n*k + m]
  /// 1 where yp's row is all ±0 with a finite innovation and error: the
  /// local analysis leaves the row out of the Gram and projection, which
  /// is exact (letkf::zero_spread), but keeps it in the ranking, the cap
  /// and the weight-cache signature.
  std::vector<std::uint8_t> zero_spread;
  AnalysisStats stats;      ///< n_obs_in / n_obs_qc / innovation / moments
};

/// A block of ensemble members viewed over one horizontal window: entry m
/// is member m's state — the full domain, or a tile whose interior origin
/// sits at global column (x0, y0).  analyze_window() reads/writes member
/// fields at local (i - x0, j - y0) while localizing against global grid
/// coordinates.
struct EnsembleSlab {
  idx x0 = 0, y0 = 0;
  std::vector<scale::State*> members;
};

/// Integer tallies from one window analysis.  All integers on purpose:
/// integer addition is exact in any order, so summing per-shard tallies
/// reproduces the serial totals bitwise no matter how the domain is cut.
struct WindowTally {
  std::size_t grid_updated = 0;
  std::size_t local_obs = 0;
  std::size_t eig_fail = 0;
  std::size_t cache_hits = 0;
  std::size_t weight_solves = 0;
  std::size_t eig_batches = 0;
};

/// Fold a whole-domain tally into `stats` and record the kernel counters
/// "letkf.eig_batches", "letkf.weight_cache_hit", "letkf.weight_cache_miss"
/// and "letkf.eig_fail" on `metrics` (may be null).  The one recorder for
/// Letkf::analyze and hpc::ShardedEngine::analyze, so a sharded cycle
/// reports exactly what the serial one does.
void record_tally(const WindowTally& t, AnalysisStats& stats,
                  util::Metrics* metrics);

class Letkf {
 public:
  Letkf(const scale::Grid& grid, LetkfConfig cfg = {});

  /// Assimilate `obs` into the ensemble in place.  `op` supplies H.
  /// Composed from the three stages below over the full domain.
  AnalysisStats analyze(scale::Ensemble& ens, const ObsVector& obs,
                        const ObsOperator& op) const;

  /// H(x) of one member against every offered observation (pre-QC).
  /// analyze() evaluates this for all members locally; the sharded engine
  /// computes it member-side, exchanges the raw bytes, and assembles the k
  /// vectors in member order — reproducing analyze()'s H(x) table bitwise.
  static std::vector<real> member_hx(const scale::State& member,
                                     const ObsVector& obs_in,
                                     const ObsOperator& op);

  /// Stage 2: QC + obs-space statistics from the full H(x) table
  /// (hx[n*k + m], k ensemble members).  Deterministic function of its
  /// arguments and the config.
  PreparedObs prepare(const ObsVector& obs_in, const std::vector<real>& hx,
                      std::size_t k) const;

  /// Stage 3: local analyses over global columns [i_lo,i_hi) x [j_lo,j_hi).
  /// Updates the slab members in place (interiors only — the caller owns
  /// halo refresh).  The per-column weight cache and the canonical
  /// (distance, index) obs ordering make the result independent of how the
  /// domain is windowed, so shard boundaries cannot perturb the analysis.
  WindowTally analyze_window(const PreparedObs& prep,
                             const EnsembleSlab& slab, idx i_lo, idx i_hi,
                             idx j_lo, idx j_hi) const;

  const LetkfConfig& config() const { return cfg_; }

  /// Override the multiplicative inflation for subsequent analyses (the
  /// hook AdaptiveInflation drives between cycles).
  void set_inflation(real rho) { cfg_.infl_rho = rho; }

  /// Attach a metrics sink (may be null).  analyze() then records the
  /// kernel counters "letkf.eig_batches", "letkf.weight_cache_hit",
  /// "letkf.weight_cache_miss" and "letkf.eig_fail" per call
  /// (docs/LETKF_KERNEL.md).
  void set_metrics(util::Metrics* metrics) { metrics_ = metrics; }

 private:
  const scale::Grid& grid_;
  LetkfConfig cfg_;
  util::Metrics* metrics_ = nullptr;
};

}  // namespace bda::letkf
