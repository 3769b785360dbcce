#include "letkf/localization.hpp"

#include <algorithm>
#include <cmath>

namespace bda::letkf {

real gaspari_cohn(real r) {
  if (r < 0) r = -r;
  if (r >= real(2)) return 0;
  const real r2 = r * r;
  const real r3 = r2 * r;
  if (r <= real(1)) {
    return -real(0.25) * r3 * r2 + real(0.5) * r2 * r2 +
           real(0.625) * r3 - real(5.0 / 3.0) * r2 + real(1);
  }
  const real outer = real(1.0 / 12.0) * r3 * r2 - real(0.5) * r2 * r2 +
                     real(0.625) * r3 + real(5.0 / 3.0) * r2 - real(5) * r +
                     real(4) - real(2.0 / 3.0) / r;
  // The outer quintic underflows to ~-5e-7 near r = 2 in single precision;
  // a negative localization weight would flip an observation's sign.
  return std::max(outer, real(0));
}

ObsIndex::ObsIndex(const ObsVector& obs, real cell)
    : cell_(std::max(cell, real(1))), n_obs_(obs.size()), obs_(&obs) {
  if (obs.empty()) {
    nbx_ = nby_ = 1;
    buckets_.resize(1);
    return;
  }
  real xmin = obs[0].x, xmax = obs[0].x, ymin = obs[0].y, ymax = obs[0].y;
  for (const auto& o : obs) {
    xmin = std::min(xmin, o.x);
    xmax = std::max(xmax, o.x);
    ymin = std::min(ymin, o.y);
    ymax = std::max(ymax, o.y);
  }
  x0_ = xmin;
  y0_ = ymin;
  nbx_ = static_cast<long>((xmax - xmin) / cell_) + 1;
  nby_ = static_cast<long>((ymax - ymin) / cell_) + 1;
  buckets_.resize(static_cast<std::size_t>(nbx_ * nby_));
  for (std::size_t n = 0; n < obs.size(); ++n) {
    const long bi = static_cast<long>((obs[n].x - x0_) / cell_);
    const long bj = static_cast<long>((obs[n].y - y0_) / cell_);
    buckets_[bucket_of(bi, bj)].push_back(n);
  }
}

std::size_t ObsIndex::bucket_of(long bi, long bj) const {
  bi = std::clamp<long>(bi, 0, nbx_ - 1);
  bj = std::clamp<long>(bj, 0, nby_ - 1);
  return static_cast<std::size_t>(bi * nby_ + bj);
}

void ObsIndex::query(real x, real y, real radius,
                     std::vector<std::size_t>& out) const {
  if (!obs_ || obs_->empty()) return;
  const real r2 = radius * radius;
  const long bi0 = static_cast<long>((x - radius - x0_) / cell_);
  const long bi1 = static_cast<long>((x + radius - x0_) / cell_);
  const long bj0 = static_cast<long>((y - radius - y0_) / cell_);
  const long bj1 = static_cast<long>((y + radius - y0_) / cell_);
  for (long bi = std::max<long>(bi0, 0); bi <= std::min<long>(bi1, nbx_ - 1);
       ++bi)
    for (long bj = std::max<long>(bj0, 0);
         bj <= std::min<long>(bj1, nby_ - 1); ++bj)
      for (std::size_t n : buckets_[static_cast<std::size_t>(bi * nby_ + bj)]) {
        const auto& o = (*obs_)[n];
        const real dx = o.x - x, dy = o.y - y;
        if (dx * dx + dy * dy <= r2) out.push_back(n);
      }
}

void ObsIndex::query_box(real x_lo, real x_hi, real y_lo, real y_hi,
                         real radius, std::vector<std::size_t>& out) const {
  if (!obs_ || obs_->empty()) return;
  const long bi0 = static_cast<long>((x_lo - radius - x0_) / cell_);
  const long bi1 = static_cast<long>((x_hi + radius - x0_) / cell_);
  const long bj0 = static_cast<long>((y_lo - radius - y0_) / cell_);
  const long bj1 = static_cast<long>((y_hi + radius - y0_) / cell_);
  for (long bi = std::max<long>(bi0, 0); bi <= std::min<long>(bi1, nbx_ - 1);
       ++bi)
    for (long bj = std::max<long>(bj0, 0);
         bj <= std::min<long>(bj1, nby_ - 1); ++bj) {
      const auto& b = buckets_[static_cast<std::size_t>(bi * nby_ + bj)];
      out.insert(out.end(), b.begin(), b.end());
    }
}

}  // namespace bda::letkf
