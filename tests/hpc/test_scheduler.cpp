#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "hpc/scheduler.hpp"

namespace bda::hpc {
namespace {

// The operational cadence: one admission per 30-s cycle against a zero
// wait budget (instantaneous or skipped), `runtimes[c]` or `runtime_s` per
// job.  Returns one admission outcome per cycle, in time order.
std::vector<GroupAdmission> rotate(RotatingGroupPool& pool,
                                   std::size_t n_cycles, double runtime_s,
                                   const std::vector<double>* runtimes =
                                       nullptr) {
  std::vector<GroupAdmission> out;
  for (std::size_t c = 0; c < n_cycles; ++c)
    out.push_back(pool.admit(30.0 * double(c),
                             runtimes ? (*runtimes)[c] : runtime_s));
  return out;
}

std::size_t count_dropped(const std::vector<GroupAdmission>& adms) {
  std::size_t n = 0;
  for (const auto& a : adms)
    if (!a.admitted) ++n;
  return n;
}

TEST(RotatingGroupPool, PaperConfigurationNeverDrops) {
  // 4 groups x 30-s stagger covers the 120-s runtime exactly: one product
  // forecast per 30 s, as in the operational deployment.
  RotatingGroupPool pool(4);
  const auto adms = rotate(pool, 200, 120.0);
  EXPECT_EQ(count_dropped(adms), 0u);
  // Each starts on arrival and completes exactly one runtime later.
  for (std::size_t c = 0; c < adms.size(); ++c) {
    EXPECT_DOUBLE_EQ(adms[c].t_start, 30.0 * double(c));
    EXPECT_DOUBLE_EQ(adms[c].t_done - adms[c].t_start, 120.0);
  }
}

TEST(RotatingGroupPool, GroupsRotateRoundRobin) {
  RotatingGroupPool pool(4);
  const auto adms = rotate(pool, 12, 120.0);
  for (std::size_t c = 4; c < adms.size(); ++c)
    EXPECT_EQ(adms[c].group, adms[c - 4].group);
}

TEST(RotatingGroupPool, UndersizedPoolDrops) {
  // 2 groups cannot sustain a 120-s runtime every 30 s: half the cycles
  // find no free group.
  RotatingGroupPool pool(2);
  const std::size_t dropped = count_dropped(rotate(pool, 100, 120.0));
  EXPECT_GT(dropped, 40u);
  EXPECT_LT(dropped, 60u);
}

TEST(RotatingGroupPool, ShortRuntimeLeavesGroupsIdle) {
  RotatingGroupPool pool(4);
  EXPECT_EQ(count_dropped(rotate(pool, 50, 25.0)), 0u);
  // Only one group ever busy at a time.
  EXPECT_LE(pool.peak_busy(), 1);
}

TEST(RotatingGroupPool, PeakBusyBoundedByPool) {
  RotatingGroupPool pool(4);
  rotate(pool, 100, 119.0);
  EXPECT_LE(pool.peak_busy(), pool.n_groups());
}

TEST(RotatingGroupPool, VariableRuntimesHandled) {
  // Rain-dependent runtimes: some cycles run long; the rotation absorbs
  // moderate excursions without dropping everything.
  std::vector<double> runtimes(60, 110.0);
  for (std::size_t c = 20; c < 24; ++c) runtimes[c] = 125.0;  // heavy rain
  RotatingGroupPool pool(4);
  EXPECT_LE(count_dropped(rotate(pool, 60, 0.0, &runtimes)), 4u);
}

TEST(RotatingGroupPool, DroppedJobsHaveNoGroup) {
  RotatingGroupPool pool(1);
  for (const auto& a : rotate(pool, 10, 120.0))
    if (!a.admitted) {
      EXPECT_EQ(a.group, -1);
      EXPECT_DOUBLE_EQ(a.t_done, 0.0);
    }
}

// Regression for the peak-node accounting bug: occupancy used to be sampled
// only after successful assignments, skipping the dropped branch — the one
// branch where the partition is by definition saturated.  A drop must
// register full-partition occupancy, both in the admission record and in
// peak_busy().
TEST(RotatingGroupPool, DropRecordsFullPartitionOccupancy) {
  RotatingGroupPool pool(4);
  const auto adms = rotate(pool, 10, 1000.0);  // every group sticks for ages
  bool saw_drop = false;
  for (const auto& a : adms) {
    if (!a.admitted) {
      saw_drop = true;
      EXPECT_EQ(a.busy_before, 4);  // saturation, observed
    } else {
      EXPECT_GE(a.busy_before + 1, 1);
      EXPECT_LE(a.busy_before + 1, 4);
    }
  }
  ASSERT_TRUE(saw_drop);
  EXPECT_EQ(pool.peak_busy(), 4);
}

TEST(RotatingGroupPool, SingleGroupDropPeaksAtOneGroup) {
  // With one group and a long runtime, every cycle after the first drops;
  // the peak is exactly one group — never zero (the pre-fix behavior when
  // the only admission happened at zero occupancy).
  RotatingGroupPool pool(1);
  const auto adms = rotate(pool, 5, 10000.0);
  EXPECT_TRUE(adms[0].admitted);
  EXPECT_EQ(adms[0].busy_before, 0);
  for (std::size_t c = 1; c < adms.size(); ++c) {
    EXPECT_FALSE(adms[c].admitted);
    EXPECT_EQ(adms[c].busy_before, 1);  // the single group == saturation
  }
  EXPECT_EQ(pool.peak_busy(), 1);
}

// --- RotatingGroupPool: the one shared admission policy -------------------

TEST(RotatingGroupPool, AdmitsToEarliestFreeGroup) {
  RotatingGroupPool pool(3);
  const auto a = pool.admit(0.0, 100.0);
  const auto b = pool.admit(10.0, 50.0);
  const auto c = pool.admit(20.0, 50.0);
  EXPECT_TRUE(a.admitted && b.admitted && c.admitted);
  EXPECT_NE(a.group, b.group);
  EXPECT_NE(b.group, c.group);
  EXPECT_NE(a.group, c.group);
  // Group b frees at 60, c at 70, a at 100: next job takes b's group.
  const auto d = pool.admit(65.0, 10.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.group, b.group);
  EXPECT_DOUBLE_EQ(d.t_start, 65.0);
}

TEST(RotatingGroupPool, ZeroWaitDropsWhenSaturated) {
  RotatingGroupPool pool(2, 0.0);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  const auto adm = pool.admit(1.0, 100.0);
  EXPECT_FALSE(adm.admitted);
  EXPECT_EQ(adm.group, -1);
  EXPECT_EQ(adm.busy_before, 2);  // saturation observed on the drop path
  EXPECT_EQ(pool.peak_busy(), 2);
}

TEST(RotatingGroupPool, WaitBudgetQueuesInsteadOfDropping) {
  RotatingGroupPool pool(1, 15.0);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  // Frees at 100: a job ready at 90 queues 10 s (within budget)...
  const auto q = pool.admit(90.0, 10.0);
  EXPECT_TRUE(q.admitted);
  EXPECT_DOUBLE_EQ(q.t_start, 100.0);
  EXPECT_DOUBLE_EQ(q.t_done, 110.0);
  // ...but one ready at 94 (16 s before the next free instant) is dropped.
  EXPECT_FALSE(pool.admit(94.0, 10.0).admitted);
}

TEST(RotatingGroupPool, ResetForgetsOccupancy) {
  RotatingGroupPool pool(2);
  pool.admit(0.0, 50.0);
  pool.admit(0.0, 50.0);
  EXPECT_EQ(pool.peak_busy(), 2);
  pool.reset();
  EXPECT_EQ(pool.peak_busy(), 0);
  EXPECT_EQ(pool.busy_at(10.0), 0);
  EXPECT_TRUE(pool.admit(0.0, 1.0).admitted);
}

// The wall-clock form used by PipelinedDriver: a job of unknown runtime
// holds its group until release(), and the next admission goes to the free
// group idle longest (ties to the lowest index).
TEST(RotatingGroupPool, ReleaseFreesGroupOfUnknownRuntime) {
  constexpr double kUntilReleased = std::numeric_limits<double>::infinity();
  RotatingGroupPool pool(3);
  EXPECT_EQ(pool.admit(0.0, kUntilReleased).group, 0);
  EXPECT_EQ(pool.admit(1.0, kUntilReleased).group, 1);
  EXPECT_EQ(pool.admit(2.0, kUntilReleased).group, 2);
  const auto full = pool.admit(3.0, kUntilReleased);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.busy_before, 3);
  pool.release(2, 4.0);
  pool.release(0, 5.0);
  EXPECT_EQ(pool.busy_at(6.0), 1);
  const auto next = pool.admit(6.0, kUntilReleased);
  EXPECT_TRUE(next.admitted);
  EXPECT_EQ(next.group, 2);  // idle since 4.0, longer than group 0
  EXPECT_DOUBLE_EQ(next.t_start, 6.0);
}

}  // namespace
}  // namespace bda::hpc
