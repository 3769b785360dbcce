// Microbench of the LETKF weight kernel: per-gridpoint baseline vs the
// batched column solver (KeDV-style batching + exact weight reuse).
//
// The paper's cycle spends its analysis time in per-gridpoint k x k
// eigensolves; KeDV (Kudo & Imamura 2019) batches them for cache locality,
// and adjacent levels of a column frequently share the exact local-obs
// signature, letting one weight matrix serve several levels.  This bench
// measures both effects at the reference point — k = 64 members,
// 60-level columns, ~96 local obs — on three workloads:
//   * "reuse":    adjacent level pairs share a bit-identical signature
//                 (the single-elevation / quantized-vloc scenario), so the
//                 cache hits 50% of levels;
//   * "distinct": every level unique — the batching-only floor;
//   * "clear-air": every level unique and ~90% of rows with zero spread
//                 (clear-air reflectivity, every member at the floor); the
//                 batched path gathers only the rows with spread, as
//                 Letkf::analyze_window does.  Reported, not gated.
// Every batched weight matrix is checked bitwise against the per-level
// letkf_weights reference before any timing is reported, and the
// clear-air Gram and projection over the kept rows against the seed
// kernels over every row (tests/support/letkf_oracle).
//
// Output: human-readable table + BENCH_letkf_kernel.json (path overridable
// as argv[1]) with timers and kernel counters, CI-archived next to
// BENCH_pipeline_tts.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "letkf/column_solver.hpp"
#include "letkf/letkf_core.hpp"
#include "letkf_oracle.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using bda::Rng;
using bda::letkf::ColumnWeightSolver;
using bda::letkf::LetkfWorkspace;
using bda::letkf::letkf_weights;

constexpr std::size_t kMembers = 64;   // k
constexpr std::size_t kLevels = 60;    // levels per column
constexpr std::size_t kLocalObs = 96;  // p
constexpr std::size_t kColumns = 8;
constexpr int kReps = 3;
constexpr float kAlpha = 0.7f;
constexpr float kRho = 1.0f;

struct Level {
  std::vector<std::size_t> ids;
  std::vector<float> y, d, rinv;
};

struct Column {
  std::vector<Level> levels;
};

/// `zero_share` of the rows (drawn at random) have zero spread.
Level make_level(Rng& rng, std::size_t id0, double zero_share) {
  Level lv;
  lv.ids.resize(kLocalObs);
  lv.y.resize(kLocalObs * kMembers);
  lv.d.resize(kLocalObs);
  lv.rinv.resize(kLocalObs);
  for (std::size_t n = 0; n < kLocalObs; ++n) {
    lv.ids[n] = id0 + n;
    lv.d[n] = float(rng.normal());
    lv.rinv[n] = 0.25f + float(std::abs(rng.normal()));
    const bool flat = rng.uniform() < zero_share;
    for (std::size_t m = 0; m < kMembers; ++m)
      lv.y[n * kMembers + m] = flat ? 0.0f : float(rng.normal());
  }
  return lv;
}

enum class Workload { kReuse, kDistinct, kClearAir };

/// kReuse pairs adjacent levels into one signature (50% exact reuse);
/// otherwise all levels are distinct.
std::vector<Column> make_workload(Workload w, std::uint64_t seed) {
  Rng rng(seed);
  const double zero_share = w == Workload::kClearAir ? 0.9 : 0.0;
  std::vector<Column> cols(kColumns);
  for (auto& col : cols) {
    col.levels.reserve(kLevels);
    for (std::size_t l = 0; l < kLevels; ++l) {
      if (w == Workload::kReuse && (l % 2 == 1))
        col.levels.push_back(col.levels.back());
      else
        col.levels.push_back(make_level(rng, l * kLocalObs, zero_share));
    }
  }
  return cols;
}

/// The rows of `lv` with spread, as Letkf::analyze_window gathers them.
struct Rows {
  std::vector<float> y, d, rinv;
  void gather(const Level& lv) {
    y.clear();
    d.clear();
    rinv.clear();
    for (std::size_t n = 0; n < kLocalObs; ++n) {
      const float* row = lv.y.data() + n * kMembers;
      if (bda::letkf::zero_spread(row, kMembers)) continue;
      y.insert(y.end(), row, row + kMembers);
      d.push_back(lv.d[n]);
      rinv.push_back(lv.rinv[n]);
    }
  }
  std::size_t size() const { return d.size(); }
};

/// Seed Gram + projection over every row against production over the rows
/// with spread, bitwise, for every level of the workload.
std::size_t count_gram_mismatch(const std::vector<Column>& cols) {
  std::vector<float> yr_o, yr, a_o(kMembers * kMembers),
      a(kMembers * kMembers), cd_o(kMembers), cd(kMembers);
  Rows rows;
  std::size_t bad = 0;
  for (const auto& col : cols)
    for (const auto& lv : col.levels) {
      bda::letkf::oracle::build_gram(kMembers, kLocalObs, lv.y.data(),
                                     lv.rinv.data(), kRho, yr_o, a_o.data());
      bda::letkf::oracle::innovation_projection(kMembers, kLocalObs, yr_o,
                                                lv.d.data(), cd_o.data());
      rows.gather(lv);
      bda::letkf::letkf_build_gram(kMembers, rows.size(), rows.y.data(),
                                   rows.rinv.data(), kRho, yr, a.data());
      bda::letkf::letkf_innovation_projection(kMembers, rows.size(), yr,
                                              rows.d.data(), cd.data());
      if (std::memcmp(a.data(), a_o.data(), a.size() * sizeof(float)) != 0 ||
          std::memcmp(cd.data(), cd_o.data(), cd.size() * sizeof(float)) != 0)
        ++bad;
    }
  return bad;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-gridpoint baseline: one full letkf_weights per level, no reuse, the
/// serial (pre-batching) analysis behavior.  Like the real driver, the
/// weight matrix is produced into a reused buffer and consumed in place;
/// `sink` non-null switches to per-level output capture (verification).
double run_baseline(const std::vector<Column>& cols, float* sink) {
  LetkfWorkspace<float> ws(kMembers);
  std::vector<float> w(kMembers * kMembers);
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols)
    for (const auto& lv : col.levels) {
      float* dst = sink ? sink + out * kMembers * kMembers : w.data();
      if (!letkf_weights(kMembers, kLocalObs, lv.y.data(), lv.d.data(),
                         lv.rinv.data(), kAlpha, kRho, ws, dst))
        std::abort();  // SPD inputs: non-convergence here is a bench bug
      ++out;
    }
  return now_s() - t0;
}

/// Batched path: the column solver dedupes signatures and runs each
/// column's unique solves through one solve_batch call.  With
/// `skip_zero_rows`, a miss stages only the rows with spread.  Weights are
/// consumed in place (as Letkf::analyze does); `sink` non-null copies each
/// level's matrix out for the bitwise verification pass.
double run_batched(const std::vector<Column>& cols, float* sink,
                   ColumnWeightSolver<float>& solver, bool skip_zero_rows) {
  const double t0 = now_s();
  std::size_t out = 0;
  std::vector<std::size_t> slots(kLevels);
  Rows rows;
  for (const auto& col : cols) {
    solver.begin_column();
    for (std::size_t l = 0; l < kLevels; ++l) {
      const auto& lv = col.levels[l];
      if (!skip_zero_rows) {
        slots[l] = solver.add_level(kLocalObs, lv.ids.data(), lv.rinv.data(),
                                    lv.y.data(), lv.d.data());
        continue;
      }
      slots[l] = solver.lookup(kLocalObs, lv.ids.data(), lv.rinv.data());
      if (slots[l] != ColumnWeightSolver<float>::npos) continue;
      rows.gather(lv);
      slots[l] = solver.insert(kLocalObs, lv.ids.data(), lv.rinv.data(),
                               rows.size(), rows.y.data(), rows.rinv.data(),
                               rows.d.data());
    }
    solver.solve();
    for (std::size_t l = 0; l < kLevels; ++l) {
      if (!solver.converged(slots[l])) std::abort();
      const float* src = solver.weights(slots[l]);
      if (sink)
        std::copy(src, src + kMembers * kMembers,
                  sink + out * kMembers * kMembers);
      ++out;
    }
  }
  return now_s() - t0;
}

std::size_t count_mismatch(const std::vector<float>& a,
                           const std::vector<float>& b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_letkf_kernel.json";

  std::printf("\n=====================================================\n");
  std::printf("LETKF weight kernel: batched + weight reuse vs baseline\n");
  std::printf("  k = %zu members, %zu-level columns, p = %zu local obs,\n",
              kMembers, kLevels, kLocalObs);
  std::printf("  %zu columns x %d reps; KeDV-style batch (Kudo 2019)\n",
              kColumns, kReps);
  std::printf("=====================================================\n");

  bda::util::Metrics metrics;
  const std::size_t n_w = kColumns * kLevels * kMembers * kMembers;
  std::vector<float> w_base(n_w), w_batch(n_w);

  struct WorkloadResult {
    const char* name;
    double base_s, batch_s, hit_rate;
  };
  std::vector<WorkloadResult> results;

  struct Case {
    Workload w;
    const char* name;
    std::uint64_t seed;
  };
  for (const Case& wc : {Case{Workload::kReuse, "reuse", 20210729u},
                         Case{Workload::kDistinct, "distinct", 20210730u},
                         Case{Workload::kClearAir, "clear-air", 20210731u}}) {
    const char* name = wc.name;
    const bool skip = wc.w == Workload::kClearAir;
    const auto cols = make_workload(wc.w, wc.seed);
    ColumnWeightSolver<float> solver(kMembers, kLevels, kAlpha, kRho);

    // Warmup both paths (page in the workload), then correctness gates.
    if (skip) {
      const std::size_t bad_gram = count_gram_mismatch(cols);
      if (bad_gram != 0) {
        std::printf("FAIL [%s]: %zu levels' Gram/projection over the rows "
                    "with spread differ from the seed kernels over every "
                    "row\n",
                    name, bad_gram);
        return 1;
      }
    }
    run_baseline(cols, w_base.data());
    run_batched(cols, w_batch.data(), solver, skip);
    const std::size_t bad = count_mismatch(w_base, w_batch);
    if (bad != 0) {
      std::printf("FAIL [%s]: %zu weight elements differ from the serial "
                  "reference (bitwise contract broken)\n",
                  name, bad);
      return 1;
    }

    double base_s = 0, batch_s = 0;
    for (int r = 0; r < kReps; ++r) {
      const double tb = run_baseline(cols, nullptr);
      const double tk = run_batched(cols, nullptr, solver, skip);
      base_s += tb;
      batch_s += tk;
      metrics.observe(std::string("letkf_kernel.baseline_s.") + name, tb);
      metrics.observe(std::string("letkf_kernel.batched_s.") + name, tk);
    }
    const double levels_seen = double(solver.cache_hits() +
                                      solver.cache_misses());
    const double hit_rate =
        levels_seen > 0 ? double(solver.cache_hits()) / levels_seen : 0.0;
    metrics.count(std::string("letkf_kernel.cache_hit.") + name,
                  solver.cache_hits());
    metrics.count(std::string("letkf_kernel.cache_miss.") + name,
                  solver.cache_misses());
    metrics.count(std::string("letkf_kernel.batches.") + name,
                  solver.batches());
    metrics.observe(std::string("letkf_kernel.speedup.") + name,
                    base_s / batch_s);
    results.push_back({name, base_s, batch_s, hit_rate});
  }

  std::printf("\n%-10s %12s %12s %9s %9s\n", "workload", "baseline[s]",
              "batched[s]", "speedup", "hit-rate");
  bool pass = true;
  for (const auto& r : results) {
    const double speedup = r.base_s / r.batch_s;
    std::printf("%-10s %12.4f %12.4f %8.2fx %8.0f%%\n", r.name, r.base_s,
                r.batch_s, speedup, 100.0 * r.hit_rate);
    if (std::string(r.name) == "reuse" && speedup < 1.5) pass = false;
  }
  std::printf("\nbitwise check: batched weights == serial reference "
              "(all %zu matrices); clear-air Gram/projection == seed "
              "kernels\n", results.size() * kColumns * kLevels);
  std::printf("acceptance (reuse >= 1.50x): %s\n", pass ? "PASS" : "FAIL");

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("metrics -> %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
