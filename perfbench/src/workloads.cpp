#include "workloads.hpp"

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench/common.hpp"
#include "serve/product_cache.hpp"
#include "serve/publisher.hpp"
#include "serve/tile_server.hpp"
#include "util/metrics.hpp"
#include "workflow/pipeline.hpp"
#include "workflow/products.hpp"

namespace perfbench {
namespace {

using namespace bda;

// Scenario.  The storm OSSE of bench/common.hpp (grid, sounding, radar,
// LETKF settings); what differs per workload is ensemble size, obs density
// and thread budget.
//
// One refresh advances the model 6 s: ten 0.6-s steps, so every refresh
// holds exactly one full-physics step (physics_every = 10) and refresh
// times are not bimodal.  The 30-s cadence of the paper would give ~6
// refreshes in a run, too few for a tail percentile.
constexpr double kModelInterval = 6.0;
// Set-up: the truth alone runs 300 s after the storm trigger (until it
// rains), members are cut from it there and perturbed, the truth runs 60 s
// more (so every member starts 60 s behind it: a position and timing
// error the radar can correct), then truth and members run 30 s together
// for flow-dependent spread.  A full ensemble spin-up of 360 s costs ~12 s
// per set-up on 4 cores; this one costs ~2-4 s.
constexpr double kTruthLead = 300.0;
constexpr double kMemberLag = 60.0;
constexpr double kJointSpinup = 30.0;
constexpr double kForecastLead = 30.0;  ///< <2> horizon (model seconds)
constexpr int kSetups = 3;       ///< set-ups per run; setup_s is their median
constexpr int kStagedBefore = 3;  ///< pipelined_ops staged refreshes before
constexpr int kEpilogue = 2;      ///< ... and after the driver run
constexpr int kWarmCycles = 5;    ///< pipelined_ops warm-up driver cycles

int host_nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Set-up spins up on every core but one.  On the 4-core development host
/// a team of 2, 3 or 4 spins up equally fast (3.5-4.5 s for 16 members),
/// and a smaller team is less exposed to a descheduled thread.
int setup_team(int nproc) { return std::max(1, nproc - 1); }

workflow::BdaSystemConfig osse_config(int members, std::uint64_t seed) {
  auto cfg = bench::osse_config(members);
  cfg.cycle_s = kModelInterval;
  cfg.transfer_scans = true;
  cfg.seed = seed;
  return cfg;
}

/// Construction and spin-up.  The seed reaches the program through
/// cfg.seed: member perturbations and radar noise.
std::unique_ptr<workflow::BdaSystem> spin_up(
    const workflow::BdaSystemConfig& cfg, int px, int py) {
  auto sys = std::make_unique<workflow::BdaSystem>(
      bench::osse_grid(), scale::convective_sounding(), cfg);
  if (px * py > 1) sys->enable_sharding(px, py);
  sys->trigger_storm(6000.0f, 6000.0f, 4.0f, /*in_ensemble=*/false);
  sys->spinup_nature(kTruthLead);
  for (int m = 0; m < sys->ensemble().size(); ++m)
    sys->ensemble().member(m) = sys->nature().state();
  sys->perturb_ensemble();
  sys->spinup_nature(kMemberLag);
  sys->spinup(kJointSpinup);
  return sys;
}

/// Wind error of `a` against the truth `b`: RMSE of the three momentum
/// components over the interior (the radar's Doppler winds constrain them).
double wind_rmse(const scale::State& a, const scale::State& b) {
  double sum = 0;
  std::size_t n = 0;
  const RField3D scale::State::*fields[] = {
      &scale::State::momx, &scale::State::momy, &scale::State::momz};
  for (auto f : fields) {
    const RField3D& x = a.*f;
    const RField3D& y = b.*f;
    for (idx i = 0; i < x.nx(); ++i)
      for (idx j = 0; j < x.ny(); ++j)
        for (idx k = 0; k < x.nz(); ++k) {
          const double d = double(x(i, j, k)) - double(y(i, j, k));
          sum += d * d;
          ++n;
        }
  }
  return std::sqrt(sum / double(n));
}

/// RMSE of the 2-km reflectivity map of `a` against the truth's [dBZ].
double dbz_rmse(workflow::BdaSystem& sys, const scale::State& a) {
  const RField2D x = sys.reflectivity_map(a);
  const RField2D y = sys.reflectivity_map(sys.nature().state());
  double sum = 0;
  for (idx i = 0; i < a.nx; ++i)
    for (idx j = 0; j < a.ny; ++j) {
      const double d = double(x(i, j)) - double(y(i, j));
      sum += d * d;
    }
  return std::sqrt(sum / double(a.nx * a.ny));
}

std::size_t state_bytes(const scale::State& s) {
  std::size_t n = s.dens.size() + s.momx.size() + s.momy.size() +
                  s.momz.size() + s.rhot.size();
  for (const auto& q : s.rhoq) n += q.size();
  return n * sizeof(real);
}

/// Member<->domain state bytes crossing ranks per refresh, computed from
/// array sizes: each member's tile interiors go to the px*py-1 foreign
/// domain ranks and come back with their halos.  H(x) traffic excluded.
double shuffle_mb_computed(const scale::Grid& g, int members, int px,
                           int py) {
  const int ranks = px * py;
  if (ranks <= 1) return 0;
  const idx h = scale::Grid::kHalo;
  const double levels =
      double(4 + scale::kNumTracers) * double(g.nz()) + double(g.nz() + 1);
  const double tnx = double(g.nx() / px), tny = double(g.ny() / py);
  const double fwd = tnx * tny * levels * sizeof(real);
  const double bwd = (tnx + 2 * h) * (tny + 2 * h) * levels * sizeof(real);
  return double(members) * double(ranks - 1) * (fwd + bwd) / 1e6;
}

/// The program as deployed for one workload: metrics sink, OSSE system,
/// product cache, publisher, tile server and (pipelined_ops) the driver.
/// Members are destroyed in reverse order, so the driver and the
/// publisher's threads stop before what they borrow goes away.
struct Rig {
  std::unique_ptr<util::Metrics> metrics;
  std::unique_ptr<workflow::BdaSystem> sys;
  std::unique_ptr<serve::ProductCache> cache;
  std::unique_ptr<serve::Publisher> publisher;
  std::unique_ptr<serve::TileServer> server;
  std::unique_ptr<workflow::PipelinedDriver> driver;
  double driver_origin_ms = 0;  ///< tracer time of the driver's clock zero
};

std::unique_ptr<Rig> build_rig(const workflow::BdaSystemConfig& cfg, int px,
                               int py, serve::PublisherConfig pubc) {
  auto r = std::make_unique<Rig>();
  r->metrics = std::make_unique<util::Metrics>();
  r->sys = spin_up(cfg, px, py);
  r->sys->set_metrics(r->metrics.get());
  r->cache = std::make_unique<serve::ProductCache>();
  r->publisher = std::make_unique<serve::Publisher>(
      r->cache.get(), std::move(pubc), r->metrics.get());
  r->server =
      std::make_unique<serve::TileServer>(r->cache.get(), r->metrics.get());
  return r;
}

/// Client of the tile server: fetches every tile of a cycle and decodes it
/// against the tiles it decoded for the previous cycle.
class Client {
 public:
  enum class Fetch { kOk, kNoBase, kError };

  explicit Client(const scale::Grid& g) {
    const serve::TileGridConfig tg;
    tiles_y_ = serve::tile_count(g.ny(), tg.tile_ny);
    for (auto kind : {serve::ProductKind::kMapView,
                      serve::ProductKind::kVolume3D})
      for (idx tx = 0; tx < serve::tile_count(g.nx(), tg.tile_nx); ++tx)
        for (idx ty = 0; ty < tiles_y_; ++ty)
          keys_.push_back(serve::TileKey{kind, tx, ty});
  }

  /// Fetch and decode cycle `c`.  kNoBase: a delta tile whose base this
  /// client never saw (it joined mid-chain); kError: a miss or a decode
  /// that threw.
  Fetch fetch(const serve::TileServer& server, std::uint64_t c) {
    std::map<serve::TileKey, std::vector<float>> got;
    try {
      for (const auto& key : keys_) {
        const serve::TileResponse resp = server.get({key, c});
        if (!resp.hit()) return Fetch::kError;
        const serve::EncodedTile& t = *resp.tile;
        const std::vector<float>* base = nullptr;
        std::int64_t base_cycle = serve::kNoBaseCycle;
        if (!t.is_keyframe()) {
          if (!have_ || prev_.count(key) == 0) return Fetch::kNoBase;
          base = &prev_[key];
          base_cycle = static_cast<std::int64_t>(prev_cycle_);
        }
        got[key] = serve::decode_tile(t, base, base_cycle);
      }
    } catch (const std::exception&) {
      return Fetch::kError;
    }
    prev_ = std::move(got);
    prev_cycle_ = c;
    have_ = true;
    return Fetch::kOk;
  }

  void forget() { have_ = false; }

  /// The last decoded cycle equals the products of `s`, bit for bit.
  bool matches(const scale::Grid& g, const scale::State& s) const {
    if (!have_) return false;
    const serve::ProductFrame frame = workflow::product_frame(g, s);
    const serve::TileGridConfig tg;
    const auto map_tiles = serve::cut_tiles(frame.map_view, tg);
    const auto vol_tiles = serve::cut_tiles(frame.volume, tg);
    for (const auto& [key, samples] : prev_) {
      const auto& want =
          key.kind == serve::ProductKind::kMapView ? map_tiles : vol_tiles;
      const auto& w = want[static_cast<std::size_t>(key.tx * tiles_y_ +
                                                     key.ty)];
      if (w.size() != samples.size() ||
          std::memcmp(w.data(), samples.data(),
                      w.size() * sizeof(float)) != 0)
        return false;
    }
    return prev_.size() == keys_.size();
  }

 private:
  std::vector<serve::TileKey> keys_;
  idx tiles_y_ = 0;
  std::map<serve::TileKey, std::vector<float>> prev_;
  std::uint64_t prev_cycle_ = 0;
  bool have_ = false;
};

/// One refresh composed from the staged API in cycle()'s order, with the
/// product chain after it.  Spans go to the tracer when it is enabled.
class Refresher {
 public:
  struct Chain {
    bool forecast = true;
    double forecast_lead_s = kForecastLead;
    bool publish = true;  ///< submit+drain, then fetch and decode
  };
  struct Rec {
    double ms = 0;        ///< refresh wall time, benchmark checks excluded
    double tts_ms = 0;    ///< scan complete -> forecast maps returned
    double admit_ms = 0;  ///< scan complete -> forecast starts
    std::vector<std::string> failures;
    workflow::CycleResult res;
  };

  Refresher(Rig& rig, Tracer& tr, Chain chain, RunOutcome& out)
      : rig_(rig), tr_(tr), chain_(chain), out_(out),
        client_(rig.sys->grid()) {}

  Rec refresh(long c) {
    Rec r;
    auto& sys = *rig_.sys;
    double check_ms = 0, dbz_bg = 0, wind_bg = 0;
    const double t_start = tr_.now_ms();
    const int root = tr_.open("workflow.refresh", c);

    workflow::BdaSystem::ObservedScans scans;
    {
      Scope s(tr_, "pawr.observe", c, root);
      scans = sys.advance_and_observe();
    }
    const double t_obs = tr_.now_ms();
    {
      Scope s(tr_, "jitdt.transfer", c, root);
      sys.transfer_scan(scans);
    }
    letkf::ObsVector obs;
    {
      Scope s(tr_, "pawr.regrid", c, root);
      obs = sys.regrid_observations(scans);
    }
    {
      Scope s(tr_, "scale.advance", c, root);
      sys.advance_ensemble();
    }
    {
      // Benchmark check (background error), not part of the refresh.
      Scope s(tr_, "bench.check", c, root);
      const double t = tr_.now_ms();
      const scale::State bg = sys.ensemble().mean();
      dbz_bg = dbz_rmse(sys, bg);
      wind_bg = wind_rmse(bg, sys.nature().state());
      check_ms += tr_.now_ms() - t;
    }
    {
      Scope s(tr_, "letkf.analysis", c, root);
      r.res = sys.finish_analysis(std::move(scans.partial), obs);
    }
    scale::State mean;
    {
      Scope s(tr_, "scale.mean", c, root);
      mean = sys.ensemble().mean();
    }
    bool published = true;
    Client::Fetch fetch = Client::Fetch::kOk;
    if (chain_.forecast) {
      r.admit_ms = tr_.now_ms() - t_obs - check_ms;
      {
        Scope s(tr_, "scale.forecast", c, root);
        const auto maps = workflow::run_forecast_maps(
            sys.grid(), sys.sounding(), sys.config().model, mean,
            chain_.forecast_lead_s, sys.config().cycle_s, 2000.0f,
            rig_.metrics.get());
        if (maps.empty()) r.failures.push_back("forecast_empty");
      }
      r.tts_ms = tr_.now_ms() - t_obs - check_ms;
    }
    if (chain_.publish) {
      const std::uint64_t superseded = rig_.publisher->superseded();
      {
        Scope s(tr_, "serve.publish", c, root);
        rig_.publisher->submit(
            static_cast<std::uint64_t>(c),
            [grid = sys.grid(), snap = mean] {
              return workflow::product_frame(grid, snap);
            });
        published = rig_.publisher->drain();
      }
      if (rig_.publisher->superseded() != superseded) published = false;
      {
        Scope s(tr_, "serve.fetch", c, root);
        fetch = client_.fetch(*rig_.server, static_cast<std::uint64_t>(c));
      }
    }
    tr_.close(root);
    r.ms = tr_.now_ms() - t_start - check_ms;

    // Output checks, outside the refresh time.
    const auto& xfer = r.res.transfer;
    if (!xfer.success || !xfer.crc_ok) r.failures.push_back("transfer");
    for (int m = 0; m < sys.ensemble().size(); ++m)
      if (sys.ensemble().member(m).has_nonfinite()) {
        r.failures.push_back("nonfinite_member");
        break;
      }
    if (r.res.analysis.n_eig_fail > 0) r.failures.push_back("eig_fail");
    if (!published) r.failures.push_back("publish");
    if (fetch != Client::Fetch::kOk) {
      r.failures.push_back("tile_fetch");
    } else if (chain_.publish && !client_.matches(sys.grid(), mean)) {
      out_.correct = false;
      out_.check_notes.push_back(
          "served tiles differ from the analysis products at refresh " +
          std::to_string(c));
    }
    auto& e = out_.err;
    e.dbz_bg += dbz_bg;
    e.dbz_an += dbz_rmse(sys, mean);
    e.wind_bg += wind_bg;
    e.wind_an += wind_rmse(mean, sys.nature().state());
    ++e.n;
    return r;
  }

  /// Shipped-byte tallies of a published cycle (read from the cache).
  void account_cycle(std::uint64_t c) {
    const auto epoch = rig_.cache->snapshot();
    if (const serve::CycleProducts* p = epoch->find_cycle(c)) {
      delta_bytes_ += double(p->delta_bytes);
      shipped_bytes_ += double(p->delta_bytes + p->keyframe_bytes);
      ++cycles_;
    }
  }
  double delta_share() const {
    return shipped_bytes_ > 0 ? delta_bytes_ / shipped_bytes_ : 0;
  }
  double tile_kb() const {
    return cycles_ > 0 ? shipped_bytes_ / double(cycles_) / 1e3 : 0;
  }
  Client& client() { return client_; }

 private:
  Rig& rig_;
  Tracer& tr_;
  Chain chain_;
  RunOutcome& out_;
  Client client_;
  double delta_bytes_ = 0, shipped_bytes_ = 0;
  std::size_t cycles_ = 0;
};

/// Refreshes whose spans a traced run keeps: pairs on, pairs off, so that
/// traced and untraced refreshes see both parities of the two-group
/// rotation in pipelined_ops.
bool traced_refresh(const Options& o, long c) {
  return o.trace && (c / 2) % 2 == 1;
}

void add_failures(RunOutcome& out, const std::vector<std::string>& causes) {
  ++out.attempted;
  if (causes.empty()) return;
  ++out.failed;
  for (const auto& c : causes) ++out.failures[c];
}

/// Per-refresh counts every workload reports from its CycleResults.
void add_cycle_counts(RunOutcome& out, const workflow::CycleResult& res) {
  const auto& a = res.analysis;
  out.per_refresh["pawr.obs"].push_back(double(res.n_obs));
  out.per_refresh["letkf.weight_solves"].push_back(double(a.n_weight_solved));
  out.per_refresh["letkf.weight_reuse"].push_back(double(a.n_weight_reuse));
  out.per_refresh["letkf.eig_batches"].push_back(double(a.n_eig_batches));
  out.per_refresh["letkf.mean_local_obs"].push_back(a.mean_local_obs);
  out.per_refresh["jitdt.bytes"].push_back(double(res.transfer.bytes));
  out.layer["letkf.eig_fail"] += double(a.n_eig_fail);
  out.layer["jitdt.restarts"] += double(res.transfer.restarts);
}

void finish_counts(RunOutcome& out, workflow::BdaSystem& sys, int px,
                   int py) {
  const auto& cfg = sys.config();
  const double steps =
      std::floor(cfg.cycle_s / double(cfg.model.dt) + 0.5);
  out.layer["scale.member_steps"] = double(cfg.n_members) * steps;
  out.layer["scale.advance_mb_computed"] =
      double(cfg.n_members) * steps *
      double(state_bytes(sys.ensemble().member(0))) / 1e6;
  out.layer["hpc.shuffle_mb_computed"] =
      shuffle_mb_computed(sys.grid(), cfg.n_members, px, py);
  double reuse = 0, solves = 0;
  for (double v : out.per_refresh["letkf.weight_reuse"]) reuse += v;
  for (double v : out.per_refresh["letkf.weight_solves"]) solves += v;
  out.layer["letkf.reuse_ratio"] =
      reuse + solves > 0 ? reuse / (reuse + solves) : 0;
}

void add_config(RunOutcome& out, const workflow::BdaSystemConfig& cfg,
                const std::string& extra) {
  const scale::Grid g = bench::osse_grid();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "grid %dx%dx%d dx %.0f m; members %d; model interval %.1f s "
                "(dt %.2f, physics every %d steps); clear_air_thin %d; "
                "max_obs_per_grid %d; "
                "transfer_scans on; spin-up truth %.0f s, member lag %.0f s, "
                "joint %.0f s; %s",
                int(g.nx()), int(g.ny()), int(g.nz()), double(g.dx()),
                cfg.n_members, cfg.cycle_s, double(cfg.model.dt),
                int(cfg.model.physics_every), int(cfg.obsgen.clear_air_thin),
                int(cfg.letkf.max_obs_per_grid), kTruthLead, kMemberLag, kJointSpinup, extra.c_str());
  out.config.emplace_back("scenario", buf);
}

struct StagedSpec {
  int members = 8;
  double model_interval_s = kModelInterval;
  int physics_every = 10;  ///< keeps one full-physics step per refresh
  int px = 1, py = 1;
  int main_team = 1;
  int clear_air_thin = 4;
  int max_obs_per_grid = 100;
  double forecast_lead_s = kForecastLead;
};

/// serial_refresh and dense_sharded: the staged chain in a closed loop on
/// the driving thread.
RunOutcome run_staged(const StagedSpec& sp, const Options& o) {
  RunOutcome out;
  ThreadBudget& b = out.budget;
  b.nproc = host_nproc();
  b.setup_team = setup_team(b.nproc);
  b.main_team = sp.main_team;
  b.ranks = sp.px * sp.py > 1 ? sp.px * sp.py : 0;
  b.peak_compute = std::max(b.main_team, b.ranks);
  b.note = "publisher worker + watchdog (the driving thread waits on drain)";
  if (b.ranks > 0)
    b.note += "; the driving thread waits while the ranks run";

  auto cfg = osse_config(sp.members, o.seed);
  cfg.cycle_s = sp.model_interval_s;
  cfg.model.physics_every = sp.physics_every;
  cfg.obsgen.clear_air_thin = sp.clear_air_thin;
  cfg.letkf.max_obs_per_grid = sp.max_obs_per_grid;
  char extra[160];
  std::snprintf(extra, sizeof extra,
                "ranks %dx%d; <2> lead %.0f s, maps every %.0f s",
                sp.px, sp.py, sp.forecast_lead_s, sp.model_interval_s);
  add_config(out, cfg, extra);

  Tracer tr(Clock::now());
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    omp_set_num_threads(b.setup_team);
    const double t0 = tr.now_ms();
    rig = build_rig(cfg, sp.px, sp.py, serve::PublisherConfig{});
    out.setup_s.push_back((tr.now_ms() - t0) / 1e3);
  }
  omp_set_num_threads(b.main_team);

  Refresher::Chain chain;
  chain.forecast_lead_s = sp.forecast_lead_s;
  Refresher ref(*rig, tr, chain, out);
  ref.refresh(0);  // warm-up, not counted
  out.err = {};

  const double t_begin = tr.now_ms();
  for (long c = 1; tr.now_ms() - t_begin < o.seconds * 1e3; ++c) {
    const bool traced = traced_refresh(o, c);
    tr.set_enabled(traced);
    const Refresher::Rec r = ref.refresh(c);
    tr.set_enabled(false);
    ref.account_cycle(static_cast<std::uint64_t>(c));
    out.refresh_ms.push_back(r.ms);
    (traced ? out.refresh_traced_ms : out.refresh_untraced_ms)
        .push_back(r.ms);
    out.busy_s += r.ms / 1e3;
    out.tts_ms.push_back(r.tts_ms);
    out.per_refresh["workflow.admit_wait_ms"].push_back(r.admit_ms);
    add_cycle_counts(out, r.res);
    add_failures(out, r.failures);
  }

  finish_counts(out, *rig->sys, sp.px, sp.py);
  out.layer["hpc.peak_mailbox_depth"] =
      rig->sys->sharded() ? double(rig->sys->sharded_engine()
                                       ->peak_mailbox_depth())
                          : 0.0;
  out.layer["workflow.launched"] = double(out.attempted);
  out.layer["workflow.dropped"] = 0;
  // The forecast runs inline: its "group" is the driving thread.
  double fc_ms = 0;
  const auto& admit = out.per_refresh["workflow.admit_wait_ms"];
  for (std::size_t i = 0; i < out.tts_ms.size(); ++i)
    fc_ms += out.tts_ms[i] - admit[i];
  out.layer["workflow.group_busy_share"] =
      out.busy_s > 0 ? fc_ms / (out.busy_s * 1e3) : 0;
  out.layer["serve.delta_share"] = ref.delta_share();
  out.layer["serve.tile_kb"] = ref.tile_kb();
  out.layer["serve.superseded"] = double(rig->publisher->superseded());
  out.layer["serve.restarts"] = double(rig->publisher->restarts());
  out.spans = tr.spans();
  return out;
}

}  // namespace

RunOutcome run_serial_refresh(const Options& o) {
  // The whole Fig 2 chain in one process on one OpenMP team of nproc.
  StagedSpec sp;
  sp.members = 8;
  sp.main_team = host_nproc();
  return run_staged(sp, o);
}

RunOutcome run_dense_sharded(const Options& o) {
  // LETKF-heavy: every clear-air observation kept, up to 200 per grid
  // point, and a 3-s model interval (five steps, physics on the fifth so
  // each refresh still holds one full-physics step), sharded over 2x1 ranks
  // with one OpenMP thread each.  The product forecast is one model
  // interval long.  12 members put the <1-1> analysis at ~58% of the
  // refresh and keep a refresh near 0.4 s, so a 20-s run holds the >= 40
  // refreshes a p75 tail needs (16 members: ~0.5 s, at the p50/p75 edge).
  StagedSpec sp;
  sp.members = 12;
  sp.model_interval_s = 3.0;
  sp.physics_every = 5;
  sp.px = 2;
  sp.py = 1;
  sp.main_team = 2;
  sp.clear_air_thin = 1;
  sp.max_obs_per_grid = 200;
  sp.forecast_lead_s = sp.model_interval_s;
  return run_staged(sp, o);
}

RunOutcome run_pipelined_ops(const Options& o) {
  RunOutcome out;
  ThreadBudget& b = out.budget;
  b.nproc = host_nproc();
  b.setup_team = setup_team(b.nproc);
  b.groups = b.nproc >= 3 ? 2 : 1;  // 2 on any host with room for them
  b.main_team = std::max(1, b.nproc - b.groups);
  b.peak_compute = b.main_team + b.groups;
  b.note = "overlap task (JIT-DT + regrid, ~1 ms, while the advance runs), "
           "publisher worker + watchdog";

  const auto cfg = osse_config(8, o.seed);
  char extra[200];
  std::snprintf(extra, sizeof extra,
                "PipelinedDriver: %d groups, product every cycle, <2> lead "
                "%.0f s, maps every %.0f s; publish every cycle; "
                "cycle_sleep_s 0, "
                "forecast_sleep_s 0, sleep_for_cycle %.3f s",
                b.groups, kForecastLead, kModelInterval, o.slow_forecast_s);
  add_config(out, cfg, extra);

  Tracer tr(Clock::now());
  // Stamps written by the driver's callbacks (main thread) and the
  // publisher's hook (publisher worker).
  std::vector<double> stamps, check_ms;
  std::vector<char> nonfinite;
  std::mutex hook_mu;
  std::map<std::uint64_t, double> hook_ms;

  const auto pipeline_config = [&](serve::Publisher* publisher) {
    workflow::PipelineConfig pc;
    pc.n_groups = b.groups;
    pc.product_every = 1;
    pc.forecast_lead_s = kForecastLead;
    pc.forecast_out_every_s = kModelInterval;
    pc.cycle_sleep_s = 0;
    pc.forecast_sleep_s = 0;
    pc.publisher = publisher;
    pc.publish_every = 1;
    return pc;
  };

  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    omp_set_num_threads(b.setup_team);
    const double t0 = tr.now_ms();
    serve::PublisherConfig pubc;
    pubc.publish_hook = [&](std::uint64_t cycle) {
      const double t = tr.now_ms();
      std::lock_guard<std::mutex> lock(hook_mu);
      hook_ms[cycle] = t;
    };
    rig = build_rig(cfg, 1, 1, std::move(pubc));
    workflow::PipelineConfig pc = pipeline_config(rig->publisher.get());
    pc.sleep_for_cycle = [&](std::size_t c) {
      // Admission of cycle c: its analysis is done.  Stamp it, then run
      // the benchmark's member check (timed, so it can be excluded).
      const double t = tr.now_ms();
      stamps.push_back(t);
      if (c > 0 && traced_refresh(o, long(c)))
        tr.add(Span{"workflow.refresh", stamps[c - 1], t, -1, long(c), 0});
      bool bad = false;
      for (int m = 0; m < rig->sys->ensemble().size(); ++m)
        bad = bad || rig->sys->ensemble().member(m).has_nonfinite();
      nonfinite.push_back(bad);
      check_ms.push_back(tr.now_ms() - t);
      return o.slow_forecast_s;
    };
    rig->driver_origin_ms = tr.now_ms();
    rig->driver = std::make_unique<workflow::PipelinedDriver>(
        *rig->sys, pc, rig->metrics.get());
    out.setup_s.push_back((tr.now_ms() - t0) / 1e3);
  }
  omp_set_num_threads(b.main_team);

  // Staged refreshes before the driver: the layer times the driver does
  // not expose, and the background/analysis error check.
  Refresher::Chain staged;
  staged.forecast = false;
  staged.publish = false;
  Refresher ref(*rig, tr, staged, out);
  tr.set_enabled(o.trace);
  for (int i = 0; i < kStagedBefore; ++i) ref.refresh(-kStagedBefore + i);
  tr.set_enabled(false);

  // Warm-up, and the length of the timed run: a throwaway driver with its
  // own cache and publisher runs a few cycles under the same contention
  // as the timed one.  (The timed driver cannot stop early, and a second
  // run() would restart the publisher's cycle numbers.)
  std::vector<double> warm;
  {
    serve::ProductCache cache;
    serve::Publisher pub(&cache, serve::PublisherConfig{},
                         rig->metrics.get());
    workflow::PipelineConfig wc = pipeline_config(&pub);
    wc.sleep_for_cycle = [&](std::size_t) {
      warm.push_back(tr.now_ms());
      return 0.0;
    };
    workflow::PipelinedDriver driver(*rig->sys, wc, rig->metrics.get());
    driver.run(kWarmCycles);
    driver.drain();
    if (!pub.drain()) out.check_notes.push_back("warm-up publisher stuck");
  }
  std::vector<double> gaps;
  for (std::size_t i = 1; i < warm.size(); ++i)
    gaps.push_back(warm[i] - warm[i - 1]);
  std::sort(gaps.begin(), gaps.end());
  const std::size_t n_cycles = static_cast<std::size_t>(std::max(
      10.0, std::ceil(o.seconds * 1e3 / gaps[gaps.size() / 2])));

  // Driver cycle 0 is the driver's own warm-up; cycles 1..n are timed.
  const auto results = rig->driver->run(n_cycles + 1);
  rig->driver->drain();
  if (!rig->publisher->drain())
    out.check_notes.push_back("publisher did not drain");
  const auto products = rig->driver->products();
  std::map<std::size_t, workflow::ProductRecord> by_cycle;
  for (const auto& p : products) by_cycle[p.cycle] = p;

  const double org = rig->driver_origin_ms;
  double forecast_busy_ms = 0;
  std::map<std::uint64_t, double> hooks;
  {
    std::lock_guard<std::mutex> lock(hook_mu);
    hooks = hook_ms;
  }
  // Failure causes by timed cycle, reported once the served tiles are
  // checked too.
  std::map<std::size_t, std::vector<std::string>> fails_by_cycle;
  for (std::size_t c = 1; c <= n_cycles && c < stamps.size(); ++c) {
    const bool traced = traced_refresh(o, long(c));
    const double ms = stamps[c] - stamps[c - 1] - check_ms[c - 1];
    out.refresh_ms.push_back(ms);
    (traced ? out.refresh_traced_ms : out.refresh_untraced_ms).push_back(ms);
    out.busy_s += ms / 1e3;
    auto& fails = fails_by_cycle[c];
    const auto& res = results[c];
    if (!res.transfer.success || !res.transfer.crc_ok)
      fails.push_back("transfer");
    if (nonfinite[c]) fails.push_back("nonfinite_member");
    if (res.analysis.n_eig_fail > 0) fails.push_back("eig_fail");
    add_cycle_counts(out, res);
    const auto it = by_cycle.find(c);
    if (it == by_cycle.end()) {
      fails.push_back("forecast_dropped");
    } else {
      const auto& p = it->second;
      out.tts_ms.push_back(p.tts_s * 1e3);
      out.per_refresh["workflow.admit_wait_ms"].push_back(
          (p.t_admit_s - p.t_obs_s) * 1e3);
      out.per_refresh["scale.forecast_ms"].push_back(
          (p.t_done_s - p.t_admit_s) * 1e3);
      forecast_busy_ms += (p.t_done_s - p.t_admit_s) * 1e3;
      if (traced) {
        tr.add(Span{"workflow.admit_wait", org + p.t_obs_s * 1e3,
                    org + p.t_admit_s * 1e3, -1, long(c), 0});
        tr.add(Span{"scale.forecast", org + p.t_admit_s * 1e3,
                    org + p.t_done_s * 1e3, -1, long(c), 1 + p.group});
      }
    }
    const auto h = hooks.find(c);
    if (h == hooks.end()) {
      fails.push_back("publish");
    } else {
      out.per_refresh["serve.publish_ms"].push_back(h->second - stamps[c]);
      if (traced)
        tr.add(Span{"serve.publish", stamps[c], h->second, -1, long(c),
                    1 + b.groups});
    }
  }
  const double wall_ms =
      stamps.size() > n_cycles ? stamps[n_cycles] - stamps[0] : 0;
  out.layer["workflow.group_busy_share"] =
      wall_ms > 0 ? forecast_busy_ms / (double(b.groups) * wall_ms) : 0;
  out.layer["workflow.launched"] = double(rig->driver->launched());
  out.layer["workflow.dropped"] = double(rig->driver->dropped());

  // The client fetches the cycles still in the cache, oldest first; a
  // client joining mid-chain decodes from the first keyframe on.
  const auto epoch = rig->cache->snapshot();
  bool served_latest = false;
  for (const auto& [cycle, cp] : epoch->cycles) {
    tr.set_enabled(o.trace);
    const double t = tr.now_ms();
    Client::Fetch f;
    {
      Scope s(tr, "serve.fetch", long(cycle));
      f = ref.client().fetch(*rig->server, cycle);
    }
    tr.set_enabled(false);
    if (f == Client::Fetch::kOk)
      out.per_refresh["serve.fetch_ms"].push_back(tr.now_ms() - t);
    else if (f == Client::Fetch::kNoBase)
      ref.client().forget();
    else if (fails_by_cycle.count(cycle))
      fails_by_cycle[cycle].push_back("tile_fetch");
    served_latest = f == Client::Fetch::kOk && cycle == n_cycles;
    ref.account_cycle(cycle);
  }
  if (!served_latest ||
      !ref.client().matches(rig->sys->grid(), rig->sys->ensemble().mean())) {
    out.correct = false;
    out.check_notes.push_back(
        "latest served cycle does not decode to the final analysis products");
  }
  for (const auto& [cycle, fails] : fails_by_cycle) add_failures(out, fails);
  for (int i = 0; i < kEpilogue; ++i)
    ref.refresh(long(n_cycles) + 1 + i);

  finish_counts(out, *rig->sys, 1, 1);
  out.layer["hpc.peak_mailbox_depth"] = 0;
  out.layer["serve.delta_share"] = ref.delta_share();
  out.layer["serve.tile_kb"] = ref.tile_kb();
  out.layer["serve.superseded"] = double(rig->publisher->superseded());
  out.layer["serve.restarts"] = double(rig->publisher->restarts());
  out.spans = tr.spans();
  return out;
}

}  // namespace perfbench
