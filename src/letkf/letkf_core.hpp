// Ensemble-space LETKF solver (Hunt, Kostelich & Szunyogh 2007).
//
// Everything here operates in the k-dimensional ensemble space of one
// analysis grid point; the driver (letkf.hpp) gathers local observations
// and applies the resulting weight matrix to every state variable at that
// point.  Templated on the scalar type: the paper's production
// configuration runs this in single precision.
//
// Given the local observation-space ensemble perturbations Y (p x k),
// innovations d (p), and localized inverse observation variances rinv (p):
//   A     = (k-1) I / rho + Y^T diag(rinv) Y        (ensemble-space precision)
//   A     = Q diag(lambda) Q^T                      (symmetric eigensolve)
//   Pa    = Q diag(1/lambda) Q^T
//   wbar  = Pa Y^T diag(rinv) d                     (mean update weights)
//   Wp    = Q diag(sqrt((k-1)/lambda)) Q^T          (perturbation weights)
//   Wp   <- alpha I + (1 - alpha) Wp                (RTPP relaxation,
//                                                    Table 2: alpha = 0.95)
//   W[:,m] = wbar + Wp[:,m]
// so the analysis member m is  x_m^a = xbar^b + X'b W[:,m].
//
// The solve is staged (Gram build -> eigensolve -> weight assembly) so the
// column-batched driver (column_solver.hpp) can run the eigensolves of many
// levels through one BatchedSymEigen::solve_batch call; `letkf_weights`
// composes the same stages serially and is the bitwise reference path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "letkf/eigen.hpp"

namespace bda::letkf {

/// Reusable per-thread scratch for letkf_weights; sized for `k` members.
template <typename T>
struct LetkfWorkspace {
  explicit LetkfWorkspace(std::size_t k)
      : a(k * k), q(k * k), pa(k * k), cd(k), wbar(k), tmp(k), eig(k) {}
  std::vector<T> a, q, pa, cd, wbar, tmp;
  std::vector<T> yr;  ///< p x k scaled-perturbation scratch (grown on use)
  BatchedSymEigen<T> eig;
};

/// True when the observation-space perturbation row y[0..k) is all ±0, so
/// the observation carries no ensemble spread (a clear-air reflectivity
/// report with every member at the floor).  Such a row adds only ±0
/// products to the Gram matrix and the innovation projection, and an
/// accumulator that starts at +0 or (k-1)/rho never becomes -0, so leaving
/// the row out changes no bit of A or cd provided its rinv and innovation
/// are finite (Letkf::prepare checks both before marking a row).
template <typename T>
bool zero_spread(const T* y, std::size_t k) {
  for (std::size_t m = 0; m < k; ++m)
    if (y[m] != T(0)) return false;
  return true;
}

/// Build the ensemble-space precision matrix
///   A = (k-1)/rho I + Y^T diag(rinv) Y
/// (row-major k x k, into A) with the scaled perturbations
/// Yr = diag(rinv) Y formed once in `yr`.  The observation loop is the
/// outer one: each row n adds Yr[n,i] * Y[n,j] to every upper-triangle
/// entry of a column tile, so the inner loop runs over contiguous j and the
/// k x kColTile accumulator block stays cache-resident across all p rows
/// (k = 64 is one tile; at the paper's k = 1000 a block is <= 256 KB).
/// Determinism: Yr[n,i] = Y[n,i] * rinv[n] rounds exactly like the naive
/// triple product (left-associated), and every entry starts from the same
/// value and adds its products in ascending n, so the build equals the
/// per-entry dot product bitwise (tests/support/letkf_oracle).
/// `yr` is left holding diag(rinv) Y for reuse by
/// letkf_innovation_projection.
template <typename T>
void letkf_build_gram(std::size_t k, std::size_t p, const T* Y, const T* rinv,
                      T rho, std::vector<T>& yr, T* A) {
  yr.resize(p * k);
  for (std::size_t n = 0; n < p; ++n)
    for (std::size_t i = 0; i < k; ++i) yr[n * k + i] = Y[n * k + i] * rinv[n];
  constexpr std::size_t kColTile = 64;
  const T diag = T(k - 1) / rho;
  for (std::size_t jb = 0; jb < k; jb += kColTile) {
    const std::size_t je = std::min(k, jb + kColTile);
    for (std::size_t i = 0; i < je; ++i)
      for (std::size_t j = std::max(i, jb); j < je; ++j)
        A[i * k + j] = (i == j) ? diag : T(0);
    for (std::size_t n = 0; n < p; ++n) {
      const T* yrn = yr.data() + n * k;
      const T* yn = Y + n * k;
      for (std::size_t i = 0; i < je; ++i) {
        const T a = yrn[i];
        T* ai = A + i * k;
        for (std::size_t j = std::max(i, jb); j < je; ++j) ai[j] += a * yn[j];
      }
    }
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j) A[j * k + i] = A[i * k + j];
}

/// cd = Y^T diag(rinv) d, using the prebuilt yr = diag(rinv) Y from
/// letkf_build_gram (bitwise-equal to forming Y^T rinv d directly, since
/// the products associate identically).  Observation loop outside, as in
/// the Gram: each cd[i] starts at +0 and adds its products in ascending n.
template <typename T>
void letkf_innovation_projection(std::size_t k, std::size_t p,
                                 const std::vector<T>& yr, const T* d, T* cd) {
  for (std::size_t i = 0; i < k; ++i) cd[i] = T(0);
  for (std::size_t n = 0; n < p; ++n) {
    const T* yrn = yr.data() + n * k;
    const T dn = d[n];
    for (std::size_t i = 0; i < k; ++i) cd[i] += yrn[i] * dn;
  }
}

/// Assemble the weight matrix W from a solved eigendecomposition of A
/// (evec: k x k eigenvectors, eval: ascending eigenvalues — floored in
/// place against round-off) and the projected innovations cd.
template <typename T>
void letkf_weights_from_eigen(std::size_t k, const T* evec, T* eval,
                              const T* cd, T rtpp_alpha, LetkfWorkspace<T>& ws,
                              T* W) {
  // The eigenpair buffers must never alias the wbar/pa scratch written
  // below.  By the solver convention the eigenvectors live in ws.a and the
  // eigenvalues in ws.tmp — NOT in wbar (a stale comment once claimed wbar
  // doubled as the eigenvalue array; it never may, wbar is recomputed here
  // and pa is live scratch).
  assert(static_cast<const void*>(evec) !=
         static_cast<const void*>(ws.wbar.data()));
  assert(static_cast<const void*>(evec) !=
         static_cast<const void*>(ws.pa.data()));
  assert(static_cast<const void*>(eval) !=
         static_cast<const void*>(ws.wbar.data()));
  assert(static_cast<const void*>(eval) !=
         static_cast<const void*>(ws.pa.data()));

  // Guard: A is SPD by construction; clamp tiny eigenvalues against
  // single-precision round-off.
  const T floor_ev = T(1e-6) * T(k - 1);
  for (std::size_t i = 0; i < k; ++i)
    if (eval[i] < floor_ev) eval[i] = floor_ev;

  // wbar = Q diag(1/lambda) Q^T cd.
  for (std::size_t j = 0; j < k; ++j) {
    T s = T(0);
    for (std::size_t i = 0; i < k; ++i) s += evec[i * k + j] * cd[i];
    ws.pa[j] = s / eval[j];  // pa[0..k) temporarily holds Q^T cd / lambda
  }
  for (std::size_t i = 0; i < k; ++i) {
    T s = T(0);
    for (std::size_t j = 0; j < k; ++j) s += evec[i * k + j] * ws.pa[j];
    ws.wbar[i] = s;
  }

  // W = alpha I + (1-alpha) Q diag(sqrt((k-1)/lambda)) Q^T, then add wbar
  // to every column.  ws.q holds Q scaled by sqrt((k-1)/lambda) per column.
  const T one_m_alpha = T(1) - rtpp_alpha;
  for (std::size_t j = 0; j < k; ++j) {
    const T sc = std::sqrt(T(k - 1) / eval[j]);
    for (std::size_t i = 0; i < k; ++i)
      ws.q[i * k + j] = evec[i * k + j] * sc;
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t m = 0; m < k; ++m) {
      T s = T(0);
      for (std::size_t j = 0; j < k; ++j)
        s += ws.q[i * k + j] * evec[m * k + j];
      T wp = one_m_alpha * s;
      if (i == m) wp += rtpp_alpha;
      W[i * k + m] = wp + ws.wbar[i];
    }
}

/// Compute the k x k LETKF weight matrix W (column m = weights of member m,
/// mean update included).  Y is row-major p x k; rinv holds the
/// localization-weighted inverse observation variances.  rho is the
/// multiplicative covariance inflation (1 = none; the paper relies on RTPP
/// instead).  Returns false only on eigensolver non-convergence — callers
/// must count that, not swallow it (AnalysisStats::n_eig_fail).
template <typename T>
[[nodiscard]] bool letkf_weights(std::size_t k, std::size_t p, const T* Y, const T* d,
                   const T* rinv, T rtpp_alpha, T rho,
                   LetkfWorkspace<T>& ws, T* W) {
  letkf_build_gram(k, p, Y, rinv, rho, ws.yr, ws.a.data());

  // Eigendecomposition (a is overwritten with eigenvectors; ws.tmp receives
  // the eigenvalues — wbar/pa stay free for letkf_weights_from_eigen).
  std::vector<T>& evec = ws.a;
  std::vector<T>& eval = ws.tmp;
  if (!ws.eig.solve(evec.data(), eval.data())) return false;

  letkf_innovation_projection(k, p, ws.yr, d, ws.cd.data());
  letkf_weights_from_eigen(k, evec.data(), eval.data(), ws.cd.data(),
                           rtpp_alpha, ws, W);
  return true;
}

}  // namespace bda::letkf
