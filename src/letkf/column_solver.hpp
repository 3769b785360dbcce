// Per-column batched LETKF weight solver with exact weight reuse.
//
// The analysis loop visits one vertical column (i, j) at a time, and
// adjacent levels of a column usually rank the same local observations —
// often with bit-identical localization weights (e.g. a single-elevation
// obs layer seen from vertically symmetric levels, or any quantized
// vertical-localization scheme).  Recomputing the O(k^3) weight solve per
// level is then pure waste.  This solver:
//
//   1. deduplicates levels by an exact signature — the ranked local-obs
//      index list plus the bit pattern of the localized inverse variances
//      (Y rows and innovations are functions of the obs index, so the pair
//      fully determines the solve inputs);
//   2. builds the Gram matrix + projected innovations once per unique
//      signature (letkf_build_gram / letkf_innovation_projection);
//   3. runs all unique eigendecompositions of the column through ONE
//      BatchedSymEigen::solve_batch call (the KeDV-style batch), then
//      assembles each unique weight matrix.
//
// Exactness contract: a cache hit requires byte equality of the signature,
// and the batched eigensolve is bitwise-identical to the serial path
// (eigen.hpp), so every level's weights equal a per-level letkf_weights
// call bit for bit.  Non-convergence is reported per slot and counted —
// never swallowed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "letkf/letkf_core.hpp"

namespace bda::letkf {

namespace detail {

/// FNV-1a-style hash over 8-byte words (a short tail is zero-padded into
/// one last word); chained across the id and rinv arrays.  Each step
/// h -> (h ^ w) * prime is a bijection of h, so two signatures that differ
/// in one word never collide.  The hash only pre-filters: lookup() compares
/// the signature bytes before it reports a hit.
inline std::uint64_t hash_words(const void* data, std::size_t bytes,
                                std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  if (i < bytes) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, bytes - i);
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

}  // namespace detail

template <typename T>
class ColumnWeightSolver {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `k` ensemble members, at most `max_levels` levels per column; rtpp /
  /// rho as letkf_weights.  `max_ql_iters` caps the QL iteration (the
  /// deterministic non-convergence fault knob, default matches tql2).
  ColumnWeightSolver(std::size_t k, std::size_t max_levels, T rtpp_alpha,
                     T rho, int max_ql_iters = 50)
      : k_(k), max_levels_(max_levels), rtpp_(rtpp_alpha), rho_(rho), ws_(k),
        a_(max_levels * k * k), eval_(max_levels * k), cd_(max_levels * k),
        wmat_(max_levels * k * k), ok_(max_levels, std::uint8_t(0)),
        sig_ids_(max_levels), sig_rinv_(max_levels), sig_hash_(max_levels) {
    ws_.eig.set_max_ql_iterations(max_ql_iters);
  }

  /// Start a new column: drops the weight cache (signatures are only
  /// comparable within one column's candidate set) but keeps capacity and
  /// the lifetime counters.
  void begin_column() {
    n_unique_ = 0;
    n_levels_ = 0;
    solved_ = false;
  }

  /// Probe the cache for a level's signature.  On a hit, registers the
  /// level against the existing slot and returns it — the caller can then
  /// skip gathering Y and d entirely.  Returns npos on a miss, keeping the
  /// signature's hash for the insert() that follows.
  std::size_t lookup(std::size_t p, const std::size_t* ids, const T* rinv) {
    assert(!solved_ && p > 0 && n_levels_ < max_levels_);
    const std::uint64_t h = signature_hash(p, ids, rinv);
    pending_hash_ = h;
    for (std::size_t u = 0; u < n_unique_; ++u) {
      if (sig_hash_[u] != h || sig_ids_[u].size() != p) continue;
      if (std::memcmp(sig_ids_[u].data(), ids, p * sizeof(std::size_t)) != 0)
        continue;
      if (std::memcmp(sig_rinv_[u].data(), rinv, p * sizeof(T)) != 0)
        continue;
      ++hits_;
      ++n_levels_;
      return u;
    }
    return npos;
  }

  /// Register the level whose lookup() just missed (its signature: p ids
  /// and p rinv, hashed by that lookup) and stage the Gram matrix and
  /// projected innovations for the batched solve from `rows` rows: Y
  /// row-major rows x k with their own rinv and innovations d (as
  /// letkf_weights).  The rows are the signature's own, in its order,
  /// minus any the caller left out for zero spread (letkf::zero_spread),
  /// which cannot change a bit of the solve.  Returns the new slot.
  std::size_t insert(std::size_t p, const std::size_t* ids, const T* rinv,
                     std::size_t rows, const T* Y, const T* rinv_rows,
                     const T* d) {
    assert(!solved_ && p > 0 && rows <= p && n_unique_ < max_levels_);
    assert(pending_hash_ == signature_hash(p, ids, rinv));
    const std::size_t u = n_unique_++;
    ++n_levels_;
    ++misses_;
    sig_hash_[u] = pending_hash_;
    sig_ids_[u].assign(ids, ids + p);
    sig_rinv_[u].assign(rinv, rinv + p);
    letkf_build_gram(k_, rows, Y, rinv_rows, rho_, ws_.yr,
                     a_.data() + u * k_ * k_);
    letkf_innovation_projection(k_, rows, ws_.yr, d, cd_.data() + u * k_);
    ok_[u] = 0;
    return u;
  }

  /// Convenience wrapper: lookup, then insert every row on a miss (Y/d are
  /// read only on the miss path).
  std::size_t add_level(std::size_t p, const std::size_t* ids, const T* rinv,
                        const T* Y, const T* d) {
    const std::size_t u = lookup(p, ids, rinv);
    return u != npos ? u : insert(p, ids, rinv, p, Y, rinv, d);
  }

  /// Batched eigensolve of every unique slot (one solve_batch call) and
  /// weight assembly for the converged ones.  Failed slots stay
  /// !converged() and are counted in eig_failures().
  void solve() {
    assert(!solved_);
    solved_ = true;
    if (n_unique_ == 0) return;
    ++batches_;
    fails_ += ws_.eig.solve_batch(n_unique_, a_.data(), eval_.data(),
                                  ok_.data());
    for (std::size_t u = 0; u < n_unique_; ++u) {
      if (!ok_[u]) continue;
      letkf_weights_from_eigen(k_, a_.data() + u * k_ * k_,
                               eval_.data() + u * k_, cd_.data() + u * k_,
                               rtpp_, ws_, wmat_.data() + u * k_ * k_);
    }
  }

  /// Did slot's eigensolve converge?  (Valid after solve().)
  [[nodiscard]] bool converged(std::size_t slot) const {
    assert(solved_ && slot < n_unique_);
    return ok_[slot] != 0;
  }

  /// k x k weight matrix of a converged slot (valid after solve()).
  const T* weights(std::size_t slot) const {
    assert(solved_ && slot < n_unique_ && ok_[slot] != 0);
    return wmat_.data() + slot * k_ * k_;
  }

  std::size_t members() const { return k_; }
  std::size_t n_levels() const { return n_levels_; }   ///< this column
  std::size_t n_unique() const { return n_unique_; }   ///< this column

  // Lifetime counters (across every column this solver has seen) — the
  // driver aggregates them into AnalysisStats / util::Metrics.
  std::size_t cache_hits() const { return hits_; }
  std::size_t cache_misses() const { return misses_; }
  std::size_t batches() const { return batches_; }
  std::size_t eig_failures() const { return fails_; }

 private:
  static std::uint64_t signature_hash(std::size_t p, const std::size_t* ids,
                                      const T* rinv) {
    std::uint64_t h = 1469598103934665603ull;
    h = detail::hash_words(ids, p * sizeof(std::size_t), h);
    h = detail::hash_words(rinv, p * sizeof(T), h);
    return h;
  }

  std::size_t k_, max_levels_;
  T rtpp_, rho_;
  LetkfWorkspace<T> ws_;
  std::vector<T> a_;     ///< staged Gram matrices -> eigenvectors, per slot
  std::vector<T> eval_;  ///< eigenvalues per slot
  std::vector<T> cd_;    ///< projected innovations per slot
  std::vector<T> wmat_;  ///< assembled weight matrices per slot
  std::vector<std::uint8_t> ok_;
  std::vector<std::vector<std::size_t>> sig_ids_;
  std::vector<std::vector<T>> sig_rinv_;
  std::vector<std::uint64_t> sig_hash_;
  std::uint64_t pending_hash_ = 0;  ///< hash of the last lookup()
  std::size_t n_unique_ = 0, n_levels_ = 0;
  std::size_t hits_ = 0, misses_ = 0, batches_ = 0, fails_ = 0;
  bool solved_ = false;
};

}  // namespace bda::letkf
