// Covariance localization and spatial observation search.
//
// The LETKF localizes in observation space (R-localization): each local
// observation's error variance is inflated by the inverse of the
// Gaspari-Cohn weight of its distance from the analysis point, which tapers
// its influence smoothly to zero at 2 x the localization scale.  Table 2:
// horizontal and vertical localization scales are both 2 km.
//
// ObsIndex buckets observations on a horizontal grid so the per-gridpoint
// search is O(local density), not O(total obs) — with ~10^6 obs per 30-s
// scan this is what keeps the LETKF loop linear in grid points.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "letkf/obs.hpp"

namespace bda::letkf {

/// Gaspari-Cohn (1999) 5th-order piecewise rational compactly supported
/// correlation function.  `r` is distance / localization scale; support
/// ends at r = 2.
real gaspari_cohn(real r);

/// Horizontal bucket index over observations.
class ObsIndex {
 public:
  /// Build over `obs` with bucket edge `cell` [m] (use the localization
  /// cutoff radius for near-constant-time queries).
  ObsIndex(const ObsVector& obs, real cell);

  /// Collect indices of observations with horizontal distance <= radius
  /// from (x, y).  Appends to `out` (caller clears).
  void query(real x, real y, real radius,
             std::vector<std::size_t>& out) const;

  /// Append every observation that query() at any point of the box
  /// [x_lo, x_hi] x [y_lo, y_hi] with `radius` can return: the contents of
  /// every bucket such a query visits (the same bucket arithmetic, which is
  /// monotone in x and y), so a superset, in bucket order.
  void query_box(real x_lo, real x_hi, real y_lo, real y_hi, real radius,
                 std::vector<std::size_t>& out) const;

  std::size_t size() const { return n_obs_; }

 private:
  std::size_t bucket_of(long bi, long bj) const;

  real cell_;
  real x0_ = 0, y0_ = 0;
  long nbx_ = 0, nby_ = 0;
  std::size_t n_obs_ = 0;
  const ObsVector* obs_ = nullptr;
  std::vector<std::vector<std::size_t>> buckets_;
};

// ---------------------------------------------------------------------------
// Local-observation selection on packed keys.
//
// A key holds the bit pattern of the combined normalized distance in its
// high 32 bits and an observation position in its low 32.  The distance is
// a sum of squares, so it is >= +0 and never -0 or NaN for finite obs
// positions; for such floats the IEEE bit pattern orders exactly like the
// value.  Integer order on keys is therefore exactly (distance, position)
// order, and positions that ascend with the obs index keep the canonical
// (distance, index) order of the pair-based seed selection.

static_assert(sizeof(real) == sizeof(std::uint32_t),
              "obs keys pack a 32-bit float distance");

/// Throws std::length_error unless `n_obs` positions fit the key's 32-bit
/// field with one value to spare (UINT32_MAX marks "no position").
inline void check_obs_key_range(std::size_t n_obs) {
  if (n_obs > std::size_t{std::numeric_limits<std::uint32_t>::max()})
    throw std::length_error(
        "LETKF local-obs keys hold a 32-bit observation position; the "
        "window has more observations than that");
}

inline std::uint64_t pack_obs_key(real dist, std::uint32_t pos) {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(dist)} << 32) | pos;
}

inline std::uint32_t obs_key_pos(std::uint64_t key) {
  return static_cast<std::uint32_t>(key);
}

/// Keep the `cap` smallest keys, sorted ascending (Table 2: the nearest
/// max_obs_per_grid observations, in canonical order).
inline void select_nearest(std::vector<std::uint64_t>& keys,
                           std::size_t cap) {
  if (keys.size() > cap) {
    std::nth_element(keys.begin(), keys.begin() + static_cast<long>(cap),
                     keys.end());
    keys.resize(cap);
  }
  std::sort(keys.begin(), keys.end());
}

}  // namespace bda::letkf
