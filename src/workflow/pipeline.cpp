#include "workflow/pipeline.hpp"

#include <algorithm>
#include <future>
#include <limits>
#include <utility>

#include "serve/publisher.hpp"
#include "workflow/products.hpp"

namespace bda::workflow {

PipelinedDriver::PipelinedDriver(BdaSystem& sys, PipelineConfig cfg,
                                 util::Metrics* metrics)
    : sys_(sys), cfg_(cfg), metrics_(metrics),
      t0_(std::chrono::steady_clock::now()),
      pool_(std::max(cfg.n_groups, 1)) {
  if (cfg_.n_groups < 1) cfg_.n_groups = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.resize(static_cast<std::size_t>(cfg_.n_groups));
  }
  threads_.reserve(static_cast<std::size_t>(cfg_.n_groups));
  for (int g = 0; g < cfg_.n_groups; ++g)
    threads_.emplace_back([this, g] { worker(g); });
}

PipelinedDriver::~PipelinedDriver() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PipelinedDriver::worker(int g) {
  const auto gi = static_cast<std::size_t>(g);
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || slots_[gi] != nullptr; });
      if (slots_[gi] == nullptr) return;  // shutdown, nothing pending
      job = std::move(slots_[gi]);
    }

    // <2>: the 30-minute product forecast from the analysis mean, plus the
    // injected wall sleep standing in for the Fugaku runtime.
    util::Metrics::ScopedTimer timer(metrics_, "pipeline.forecast");
    const auto maps = run_forecast_maps(
        sys_.grid(), sys_.sounding(), sys_.config().model, job->init,
        cfg_.forecast_lead_s, cfg_.forecast_out_every_s,
        cfg_.forecast_height_m, metrics_);
    if (job->sleep_s > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(job->sleep_s));
    timer.stop();

    const double t_done = now_s();
    ProductRecord rec;
    rec.cycle = job->cycle;
    rec.group = g;
    rec.t_obs_s = job->t_obs_s;
    rec.t_admit_s = job->t_admit_s;
    rec.t_done_s = t_done;
    rec.tts_s = t_done - job->t_obs_s;
    rec.n_maps = maps.size();
    if (metrics_) metrics_->observe("pipeline.tts", rec.tts_s);

    {
      std::lock_guard<std::mutex> lock(mu_);
      products_.push_back(rec);
      pool_.release(g, t_done);
    }
    idle_cv_.notify_all();
  }
}

void PipelinedDriver::submit_product(std::size_t cycle, double t_obs_s) {
  // Zero wait budget: the forecast starts now on a free group or is dropped
  // (a fresher analysis supersedes it).  Its runtime is unknown here, so
  // the group stays busy until the worker releases it.
  constexpr double kUntilReleased = std::numeric_limits<double>::infinity();
  double sleep_s = cfg_.forecast_sleep_s;
  if (cfg_.sleep_for_cycle) sleep_s = cfg_.sleep_for_cycle(cycle);

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Read the clock under the lock, after any release it could race with,
    // so a group freed before this admission is never seen as busy.
    const double t_admit = now_s();
    const hpc::GroupAdmission adm = pool_.admit(t_admit, kUntilReleased);
    if (!adm.admitted) {
      ++dropped_;
      if (metrics_) metrics_->count("pipeline.dropped");
      return;
    }
    slots_[static_cast<std::size_t>(adm.group)] = std::make_unique<Job>(
        cycle, t_obs_s, t_admit, sleep_s, sys_.ensemble().mean());
    ++launched_;
    if (metrics_) metrics_->count("pipeline.launched");
  }
  work_cv_.notify_all();
}

std::vector<CycleResult> PipelinedDriver::run(std::size_t n_cycles) {
  std::vector<CycleResult> results;
  results.reserve(n_cycles);

  for (std::size_t c = 0; c < n_cycles; ++c) {
    util::Metrics::ScopedTimer cycle_timer(metrics_, "pipeline.cycle");

    // T_obs on the main thread (all of the cycle's random draws).
    auto scans = sys_.advance_and_observe();
    const double t_obs_wall = now_s();

    // Overlap: JIT-DT transfer + regrid run concurrently with the <1-2>
    // ensemble advance.  Both sides are rng-free and touch disjoint state
    // (see the staged-API contract in cycle.hpp), so the analysis is
    // bitwise identical to the serial composition.
    auto obs_future = std::async(std::launch::async, [this, &scans] {
      sys_.transfer_scan(scans);
      return sys_.regrid_observations(scans);
    });
    sys_.advance_ensemble();
    const letkf::ObsVector obs = obs_future.get();

    // <1-1> LETKF, then hand the analysis mean to a rotating group.
    results.push_back(sys_.finish_analysis(std::move(scans.partial), obs));
    if (cfg_.product_every > 0 &&
        c % static_cast<std::size_t>(cfg_.product_every) == 0)
      submit_product(c, t_obs_wall);
    // Serving tier: hand the analysis-mean snapshot to the publisher.  The
    // lambda owns its copies; the frame is built on the publisher's worker
    // thread, and submit() never blocks — a wedged publisher costs this
    // cycle nothing (the watchdog restarts it, publisher.hpp).
    if (cfg_.publisher != nullptr && cfg_.publish_every > 0 &&
        c % static_cast<std::size_t>(cfg_.publish_every) == 0) {
      cfg_.publisher->submit(
          c, [grid = sys_.grid(), snap = sys_.ensemble().mean()] {
            return product_frame(grid, snap);
          });
    }
    if (cfg_.cycle_sleep_s > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(cfg_.cycle_sleep_s));
  }
  return results;
}

void PipelinedDriver::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Every admitted forecast leaves exactly one ProductRecord.
  idle_cv_.wait(lock, [&] { return products_.size() == launched_; });
}

std::vector<ProductRecord> PipelinedDriver::products() const {
  std::lock_guard<std::mutex> lock(mu_);
  return products_;
}

std::size_t PipelinedDriver::launched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return launched_;
}

std::size_t PipelinedDriver::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace bda::workflow
