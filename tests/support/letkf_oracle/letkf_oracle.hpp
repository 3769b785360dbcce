// The seed LETKF local-analysis kernels, kept as the bitwise oracle for
// src/letkf (docs/LETKF_KERNEL.md): local-obs selection on (distance,
// index) pairs with nth_element + sort, the Gram matrix and the innovation
// projection as one strided dot product per output entry, and a serial
// analyze_window that solves every level on its own (no column cache, no
// batching).  Production must reproduce them bit for bit; the LetkfOracle*
// tests and bench_letkf_kernel check that.  Do not optimize this code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "letkf/letkf.hpp"
#include "letkf/letkf_core.hpp"

namespace bda::letkf::oracle {

/// A = (k-1)/rho I + Y^T diag(rinv) Y, row-major k x k, one accumulator per
/// entry over ascending n; `yr` is left holding diag(rinv) Y.
template <typename T>
void build_gram(std::size_t k, std::size_t p, const T* Y, const T* rinv,
                T rho, std::vector<T>& yr, T* A) {
  yr.resize(p * k);
  for (std::size_t n = 0; n < p; ++n)
    for (std::size_t i = 0; i < k; ++i) yr[n * k + i] = Y[n * k + i] * rinv[n];
  constexpr std::size_t kColTile = 48;
  for (std::size_t jb = 0; jb < k; jb += kColTile) {
    const std::size_t je = std::min(k, jb + kColTile);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = std::max(i, jb); j < je; ++j) {
        T s = (i == j) ? T(k - 1) / rho : T(0);
        for (std::size_t n = 0; n < p; ++n) s += yr[n * k + i] * Y[n * k + j];
        A[i * k + j] = s;
        A[j * k + i] = s;
      }
    }
  }
}

/// cd = Y^T diag(rinv) d from the yr left by build_gram.
template <typename T>
void innovation_projection(std::size_t k, std::size_t p,
                           const std::vector<T>& yr, const T* d, T* cd) {
  for (std::size_t i = 0; i < k; ++i) {
    T s = T(0);
    for (std::size_t n = 0; n < p; ++n) s += yr[n * k + i] * d[n];
    cd[i] = s;
  }
}

/// Keep the `cap` smallest (distance, index) pairs, in ascending order.
inline void select_nearest(std::vector<std::pair<real, std::size_t>>& ranked,
                           std::size_t cap) {
  if (ranked.size() > cap) {
    std::nth_element(ranked.begin(), ranked.begin() + cap, ranked.end());
    ranked.resize(cap);
  }
  std::sort(ranked.begin(), ranked.end());
}

/// letkf_weights on the oracle Gram and projection: one level, one solve.
template <typename T>
[[nodiscard]] bool weights(std::size_t k, std::size_t p, const T* Y,
                           const T* d, const T* rinv, T rtpp_alpha, T rho,
                           LetkfWorkspace<T>& ws, T* W) {
  build_gram(k, p, Y, rinv, rho, ws.yr, ws.a.data());
  if (!ws.eig.solve(ws.a.data(), ws.tmp.data())) return false;
  innovation_projection(k, p, ws.yr, d, ws.cd.data());
  letkf_weights_from_eigen(k, ws.a.data(), ws.tmp.data(), ws.cd.data(),
                           rtpp_alpha, ws, W);
  return true;
}

/// The seed Letkf::analyze_window, serial, one weight solve per level.
/// Fills grid_updated, local_obs and eig_fail of the tally; the cache and
/// batch counters stay zero.
WindowTally analyze_window(const scale::Grid& grid, const LetkfConfig& cfg,
                           const PreparedObs& prep, const EnsembleSlab& slab,
                           idx i_lo, idx i_hi, idx j_lo, idx j_hi);

}  // namespace bda::letkf::oracle
