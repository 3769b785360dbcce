#include "hpc/scheduler.hpp"

#include <algorithm>

namespace bda::hpc {

RotatingGroupPool::RotatingGroupPool(int n_groups, double max_wait_s)
    : busy_until_(static_cast<std::size_t>(n_groups), 0.0),
      max_wait_s_(max_wait_s) {}

int RotatingGroupPool::busy_at(double t) const {
  int busy = 0;
  for (double until : busy_until_)
    if (until > t) ++busy;
  return busy;
}

GroupAdmission RotatingGroupPool::admit(double t_ready, double runtime_s) {
  GroupAdmission adm;
  adm.busy_before = busy_at(t_ready);
  // Occupancy is recorded before the admission decision: an attempt that
  // finds every group busy is exactly the full-partition-saturation
  // instant, and it must register in the peak even when the job is dropped.
  peak_busy_ = std::max(peak_busy_, adm.busy_before);

  // The group that frees up earliest takes the newest forecast.
  std::size_t best = 0;
  for (std::size_t g = 1; g < busy_until_.size(); ++g)
    if (busy_until_[g] < busy_until_[best]) best = g;

  const double t_start = std::max(t_ready, busy_until_[best]);
  if (t_start - t_ready > max_wait_s_) {
    // No group frees up within the wait budget: the job is skipped (a gap
    // in Fig 5, not a delay — the next cycle brings fresher data anyway).
    return adm;
  }
  adm.admitted = true;
  adm.group = static_cast<int>(best);
  adm.t_start = t_start;
  adm.t_done = t_start + runtime_s;
  busy_until_[best] = adm.t_done;
  peak_busy_ = std::max(peak_busy_, busy_at(t_start));
  return adm;
}

void RotatingGroupPool::reset() {
  std::fill(busy_until_.begin(), busy_until_.end(), 0.0);
  peak_busy_ = 0;
}

}  // namespace bda::hpc
