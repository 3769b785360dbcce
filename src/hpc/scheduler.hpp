// Pipelined node allocation for the 30-minute forecasts (part <2>).
//
// A new 30-minute, 11-member product forecast must start every 30 seconds,
// but each takes ~2 minutes of wall clock — so several must be in flight at
// once on the 880-node forecast partition.  The paper cites "an efficient
// node allocation to initialize the expensive part <2> 30-minute SCALE
// forecasts every 30 seconds" [32, 34]; the scheme modeled here is rotating
// groups: the partition is split into `n_groups` groups that take turns
// admitting the newest forecast, giving one completed product per interval
// as long as  n_groups * interval >= runtime  (with the default 4 x 30 s =
// 120 s = the ~2-minute runtime, exactly the operational balance).
//
// The admission policy lives in RotatingGroupPool and is shared by both
// consumers — the Fig 5 discrete-event twin (workflow::OperationSimulator)
// in virtual time and the real-thread workflow::PipelinedDriver in wall-
// clock time — so drop/queue semantics cannot drift between the model and
// the implementation (a drift of exactly that kind is how the peak-node
// accounting bug below went unnoticed).
#pragma once

#include <vector>

namespace bda::hpc {

/// Outcome of one admission attempt against the rotating groups.
struct GroupAdmission {
  bool admitted = false;
  int group = -1;        ///< group that runs the job (-1 when dropped)
  double t_start = 0;    ///< when the job actually starts (>= t_ready)
  double t_done = 0;     ///< t_start + runtime
  /// Groups busy at the instant the job asked for a slot (before this
  /// admission).  On a drop this equals n_groups: the partition is
  /// saturated — which is why occupancy must be sampled on the dropped
  /// branch too, not only after successful assignments.
  int busy_before = 0;
};

/// The rotating-group admission policy in virtual time.
///
/// A job arriving at `t_ready` goes to the group that frees up earliest.
/// If that group is still busy, the job may queue up to `max_wait_s`
/// (PipelinedDriver uses 0: admission is instantaneous or skipped;
/// OperationSimulator allows a short wait before a fresher analysis
/// supersedes the cycle).  Beyond the budget the job is dropped — a gap in
/// Fig 5, not a delay.  With a zero budget, "frees up earliest" is "the
/// free group idle longest", ties going to the lowest index.
class RotatingGroupPool {
 public:
  explicit RotatingGroupPool(int n_groups, double max_wait_s = 0.0);

  /// Attempt to place one job of `runtime_s` arriving at `t_ready`.
  /// Occupancy (busy_before, peak) is recorded whether or not the job is
  /// admitted.  A job whose runtime is not known up front is admitted with
  /// an infinite runtime and released when it completes.
  GroupAdmission admit(double t_ready, double runtime_s);

  /// Group `g`'s job completed at `t`: the group is free from then on.
  void release(int g, double t) {
    busy_until_[static_cast<std::size_t>(g)] = t;
  }

  /// Groups whose current job is still running at time `t`.
  int busy_at(double t) const;

  /// Highest simultaneous group occupancy seen by any admission attempt —
  /// including dropped ones, where occupancy is by definition n_groups.
  int peak_busy() const { return peak_busy_; }

  int n_groups() const { return static_cast<int>(busy_until_.size()); }
  double busy_until(int g) const {
    return busy_until_[static_cast<std::size_t>(g)];
  }

  /// Forget all jobs and the occupancy peak.
  void reset();

 private:
  std::vector<double> busy_until_;
  double max_wait_s_ = 0.0;
  int peak_busy_ = 0;
};

}  // namespace bda::hpc
