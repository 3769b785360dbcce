// Pipelined 30-second cycle driver (the paper's Fig 2 workflow with real
// concurrency).
//
// The operational system never runs its stages back to back: while the
// 30-minute product forecast <2> occupies one rotating node group for ~120 s,
// four more 30-s cycles complete on the analysis partition, and within each
// cycle the JIT-DT transfer + observation regridding overlap the <1-2>
// ensemble advance.  PipelinedDriver reproduces that schedule on threads:
//
//   main thread    : advance_and_observe -> advance_ensemble -> LETKF <1-1>
//   overlap task   : JIT-DT transfer + regrid (joined before the LETKF)
//   worker threads : one per rotating group, running run_forecast_maps <2>
//
// Product forecasts are admitted by hpc::RotatingGroupPool with a zero wait
// budget: a cycle's forecast goes to the free group that has been idle
// longest; if every group is busy the forecast is dropped (the Fig 5 gap)
// and counted.  Workers read a private copy of the ensemble mean, so the
// assimilation state is never shared — which is why the driver's analyses
// are bitwise identical to serial BdaSystem::cycle() (the RNG discipline is
// documented on the staged API in cycle.hpp).
//
// All cross-thread state is BDA_GUARDED_BY(mu_); the stress test runs this
// under TSan (see tests/workflow/test_pipeline.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hpc/scheduler.hpp"
#include "util/annotations.hpp"
#include "util/metrics.hpp"
#include "workflow/cycle.hpp"

namespace bda::serve {
class Publisher;
}  // namespace bda::serve

namespace bda::workflow {

struct PipelineConfig {
  /// Rotating node groups = concurrent product forecasts (paper: 4, so
  /// 4 x 30 s covers the ~120 s forecast runtime).
  int n_groups = 4;
  /// Launch a product forecast every N cycles (0 disables products).
  int product_every = 1;
  /// Product forecast horizon and map output interval (model seconds).
  double forecast_lead_s = 120.0;
  double forecast_out_every_s = 30.0;
  real forecast_height_m = 2000.0f;
  /// Injected wall-clock sleep per product forecast — the test stand-in
  /// for the ~120 s Fugaku runtime, scaled down so stress tests finish.
  double forecast_sleep_s = 0.0;
  /// Injected wall-clock sleep per cycle on the main thread — the stand-in
  /// for the 30-s real-time cadence (paper balance: forecast_sleep_s =
  /// n_groups * cycle_sleep_s keeps the rotation exactly sustained).
  double cycle_sleep_s = 0.0;
  /// Optional per-cycle override of the injected sleep (fault injection:
  /// return a larger value for designated "slow" cycles).  Called on the
  /// main thread at admission time.
  std::function<double(std::size_t cycle)> sleep_for_cycle;
  /// Optional serving tier (may be null): every `publish_every`-th cycle's
  /// analysis-mean nowcast products are handed to this publisher.  The
  /// handoff is one state snapshot + a non-blocking submit on the main
  /// thread; tiling, delta encoding and the cache commit all run on the
  /// publisher's own watchdog-guarded worker, so a slow or wedged
  /// publisher never delays the next cycle's admission — and the serving
  /// tier is bitwise-transparent to the analyses
  /// (tests/workflow/test_pipeline_serve.cpp).
  serve::Publisher* publisher = nullptr;
  int publish_every = 1;
};

/// One completed product forecast <2>.  Times are wall-clock seconds on the
/// monotonic clock, relative to run() start — the Fig 4 clock: `tts_s` is
/// "scan complete" to "maps written".
struct ProductRecord {
  std::size_t cycle = 0;    ///< cycle index that launched it
  int group = -1;           ///< rotating group that ran it
  double t_obs_s = 0;       ///< scan completion (wall)
  double t_admit_s = 0;     ///< admission to the group (wall)
  double t_done_s = 0;      ///< maps written (wall)
  double tts_s = 0;         ///< t_done_s - t_obs_s
  std::size_t n_maps = 0;   ///< reflectivity maps produced
};

class PipelinedDriver {
 public:
  /// The driver borrows `sys`; it must outlive the driver.  `metrics` (may
  /// be null) receives "pipeline.cycle", "pipeline.tts" and
  /// "pipeline.forecast" timers plus "pipeline.launched" /
  /// "pipeline.dropped" counters, in addition to whatever sink `sys`
  /// itself carries.
  PipelinedDriver(BdaSystem& sys, PipelineConfig cfg,
                  util::Metrics* metrics = nullptr);
  ~PipelinedDriver();

  PipelinedDriver(const PipelinedDriver&) = delete;
  PipelinedDriver& operator=(const PipelinedDriver&) = delete;

  /// Run `n_cycles` 30-s cycles.  Returns the per-cycle analysis results,
  /// bitwise identical to calling sys.cycle() n_cycles times serially.
  /// Product forecasts may still be in flight when this returns; call
  /// drain() (or destroy the driver) to wait for them.
  std::vector<CycleResult> run(std::size_t n_cycles);

  /// Block until every admitted product forecast has completed.
  void drain();

  /// Completed product forecasts so far (snapshot).
  std::vector<ProductRecord> products() const;

  std::size_t launched() const;  ///< product forecasts admitted
  std::size_t dropped() const;   ///< forecasts skipped: all groups busy

 private:
  struct Job {
    std::size_t cycle = 0;
    double t_obs_s = 0;
    double t_admit_s = 0;
    double sleep_s = 0;
    scale::State init;
    Job(std::size_t c, double t_obs, double t_admit, double sleep,
        scale::State s)
        : cycle(c), t_obs_s(t_obs), t_admit_s(t_admit), sleep_s(sleep),
          init(std::move(s)) {}
  };
  void worker(int g);
  /// Admit the cycle's product forecast through pool_, or drop it.  Main
  /// thread only.
  void submit_product(std::size_t cycle, double t_obs_s);
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  BdaSystem& sys_;
  PipelineConfig cfg_;
  util::Metrics* metrics_;
  std::chrono::steady_clock::time_point t0_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_ BDA_CV_OF(mu_);  ///< wakes workers on
                                                    ///< job / shutdown
  std::condition_variable idle_cv_ BDA_CV_OF(mu_);  ///< wakes drain() on
                                                    ///< completion
  /// Wall-clock admission: a group admitted at now_s() stays busy until
  /// its worker releases it at completion.
  hpc::RotatingGroupPool pool_ BDA_GUARDED_BY(mu_);
  /// Per-group handoff slot: set on admission, emptied by the worker.
  std::vector<std::unique_ptr<Job>> slots_ BDA_GUARDED_BY(mu_);
  std::vector<ProductRecord> products_ BDA_GUARDED_BY(mu_);
  std::size_t launched_ BDA_GUARDED_BY(mu_) = 0;
  std::size_t dropped_ BDA_GUARDED_BY(mu_) = 0;
  bool shutdown_ BDA_GUARDED_BY(mu_) = false;

  std::vector<std::thread> threads_;  ///< started in ctor, joined in dtor
};

}  // namespace bda::workflow
