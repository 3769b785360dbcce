// The three benchmark workloads and what one run of them records.
//
// Every workload is a closed loop of back-to-back refreshes on the storm
// OSSE: the next refresh starts when the previous one has completed.  The
// workload fixes its own thread budget (see ThreadBudget) and records it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the timed phase
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  /// Self-test fault: wall sleep added to every product forecast through
  /// PipelineConfig::sleep_for_cycle (pipelined_ops only).
  double slow_forecast_s = 0;
};

/// Threads a workload runs.  Every thread but the driving one gets a
/// one-thread OpenMP team (OMP_NUM_THREADS=1, set before the OpenMP runtime
/// starts); the driving thread sets its own team with omp_set_num_threads.
struct ThreadBudget {
  int nproc = 1;       ///< CPUs this process may run on
  int setup_team = 1;  ///< OpenMP team of the driving thread during set-up
  int main_team = 1;   ///< ... while refreshing
  int ranks = 0;       ///< simulated ranks (hpc::CommWorld threads)
  int groups = 0;      ///< rotating forecast groups (worker threads)
  /// Most compute threads busy at once while refreshing.
  int peak_compute = 1;
  std::string note;    ///< helper threads that wait rather than compute
};

/// Everything one run measured, before it is reduced to metrics.
struct RunOutcome {
  ThreadBudget budget;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<double> setup_s;       ///< one per set-up
  std::vector<double> refresh_ms;    ///< every timed refresh
  std::vector<double> refresh_traced_ms, refresh_untraced_ms;
  double busy_s = 0;                 ///< wall time of the timed refreshes
  std::vector<double> tts_ms;        ///< scan complete -> maps returned
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> failures;  ///< by cause
  bool correct = true;
  std::vector<std::string> check_notes;
  /// Error of the ensemble mean against the truth, summed over the
  /// checked refreshes: before (background) and after (analysis) the
  /// LETKF, for the 2-km reflectivity map and for the winds.
  struct Errors {
    double dbz_bg = 0, dbz_an = 0, wind_bg = 0, wind_an = 0;
    std::size_t n = 0;
  } err;
  /// Per-refresh samples keyed by metric name: per-call times in ms
  /// ("scale.advance_ms") and per-refresh counts ("pawr.obs").
  std::map<std::string, std::vector<double>> per_refresh;
  /// Scalar per-layer values (counts, ratios, computed bytes).
  std::map<std::string, double> layer;
  std::vector<Span> spans;
};

RunOutcome run_serial_refresh(const Options& o);
RunOutcome run_dense_sharded(const Options& o);
RunOutcome run_pipelined_ops(const Options& o);

}  // namespace perfbench
