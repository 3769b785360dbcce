// Shard-scaling bench: the sharded cycle at 1, 2, 4 and 8 simulated ranks.
//
// The paper's part <1> runs member-sharded <1-2> advances and
// domain-sharded <1-1> LETKF connected by the in-memory member<->domain
// redistribution ("MPI data transfer with RAM copy", the headline I/O
// change).  Each layout's cycles run on a caller team of px*py threads, so
// the advance (scale::Ensemble::advance) steps as many member blocks as
// there are analysis ranks (hpc::ShardedEngine), and each rank's analysis
// gets one thread.  Reported per rank count:
//   - the determinism check (every layout bitwise vs the serial cycle —
//     scaling numbers from a wrong answer are worthless),
//   - advance TTS as max-over-blocks and analysis TTS as max-over-ranks
//     thread CPU time (the node-exclusive projection; on an oversubscribed
//     host wall clock only measures the scheduler),
//   - shuffle traffic and mailbox high-water mark,
//   - the BdaCostModel projection of the measured shard cycle onto the
//     paper's 11,580-node partition (does the shuffle stay cheap at scale?).
// The metrics dump lands in BENCH_shard_scaling.json (path overridable via
// argv[1]) for the CI artifact trail, keyed "ranks1", "ranks2", ...
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <omp.h>

#include "common.hpp"
#include "hpc/perf_model.hpp"
#include "util/metrics.hpp"

namespace {

using namespace bda;

// 20x20 bench grid divides by every layout below.
const std::pair<int, int> kLayouts[] = {{1, 1}, {2, 1}, {2, 2}, {4, 2}};

bool states_equal(const scale::State& a, const scale::State& b) {
  auto eq = [](std::span<const real> x, std::span<const real> y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(real)) == 0;
  };
  bool ok = eq(a.dens.raw(), b.dens.raw()) && eq(a.momx.raw(), b.momx.raw()) &&
            eq(a.momy.raw(), b.momy.raw()) && eq(a.momz.raw(), b.momz.raw()) &&
            eq(a.rhot.raw(), b.rhot.raw());
  for (int t = 0; t < scale::kNumTracers; ++t)
    ok = ok && eq(a.rhoq[t].raw(), b.rhoq[t].raw());
  return ok;
}

struct RunResult {
  int ranks = 0;
  bool bitwise = true;
  double advance_tts_s = 0;   ///< mean over cycles of max-over-ranks CPU
  double analysis_tts_s = 0;
  double shuffle_bytes_per_cycle = 0;
  std::size_t peak_mailbox = 0;
  std::string metrics_json;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_shard_scaling.json";
  constexpr std::size_t kCycles = 3;

  bench::print_header(
      "Sharded cycle scaling (threads-as-ranks, in-memory shuffle)",
      "sec. on part <1> layouts; RAM-copy SCALE<->LETKF I/O");

  auto cfg = bench::osse_config(8);
  cfg.cycle_s = 15.0;

  // Serial reference trajectory: the answer every layout must reproduce.
  auto serial = bench::make_storm_system(cfg);
  for (std::size_t c = 0; c < kCycles; ++c) serial->cycle();

  std::vector<RunResult> results;
  for (const auto& [px, py] : kLayouts) {
    omp_set_num_threads(omp_get_num_procs());  // spin-up on every core
    auto sys = bench::make_storm_system(cfg);
    sys->enable_sharding(px, py);
    omp_set_num_threads(px * py);
    util::Metrics metrics;
    sys->set_metrics(&metrics);
    for (std::size_t c = 0; c < kCycles; ++c) sys->cycle();

    RunResult r;
    r.ranks = px * py;
    for (int m = 0; m < sys->ensemble().size(); ++m)
      r.bitwise = r.bitwise && states_equal(sys->ensemble().member(m),
                                            serial->ensemble().member(m));
    const auto adv = metrics.timer_stats("scale.advance_block_max");
    const auto ana = metrics.timer_stats("shard.analysis_max");
    r.advance_tts_s = adv.mean_s;
    r.analysis_tts_s = ana.mean_s;
    r.shuffle_bytes_per_cycle =
        double(metrics.counter("shard.shuffle_bytes")) / double(kCycles);
    r.peak_mailbox = sys->sharded_engine()->peak_mailbox_depth();
    r.metrics_json = metrics.to_json();
    results.push_back(std::move(r));
  }

  std::printf("  %zu cycles per layout, %d members, %dx%d grid\n", kCycles,
              cfg.n_members, int(bench::osse_grid().nx()),
              int(bench::osse_grid().ny()));
  std::printf("  TTS = max-over-blocks (advance) and max-over-ranks "
              "(analysis) thread CPU time per cycle\n"
              "  (node-exclusive projection; px*py member blocks)\n");
  std::printf("  ranks  bitwise  advance-TTS  analysis-TTS  shuffle/cycle  "
              "peak-mailbox\n");
  bool all_bitwise = true;
  bool advance_scales = true;
  for (const auto& r : results) {
    std::printf("  %5d  %7s  %9.3f s  %10.3f s  %11.0f B  %12zu\n", r.ranks,
                r.bitwise ? "yes" : "NO", r.advance_tts_s, r.analysis_tts_s,
                r.shuffle_bytes_per_cycle, r.peak_mailbox);
    all_bitwise = all_bitwise && r.bitwise;
  }
  // The member blocks shrink 1 -> 4 ranks (8, 4, 2 members per block), so
  // the per-block advance cost must fall with them.
  advance_scales = results[2].advance_tts_s < results[0].advance_tts_s;
  std::printf("  determinism: %s; advance TTS decreasing 1 -> 4 ranks: %s\n",
              all_bitwise ? "every layout bitwise-identical to serial"
                          : "VIOLATED",
              advance_scales ? "yes" : "NO");

  // Project the largest measured layout onto the paper's partition.  The
  // host cycle is a miniature (small grid, few members), so the measured
  // per-shard cost is first scaled to the paper's problem size — per-cell
  // per-member work is what the measurement actually calibrates.
  const auto& big = results.back();
  const auto g = bench::osse_grid();
  const double host_cells = double(g.nx() * g.ny() * g.nz());
  const double paper_cells = 256.0 * 256.0 * 60.0;  // Table 3 inner domain
  const double paper_members = 1000.0;
  const double work_scale =
      (paper_cells / host_cells) * (paper_members / double(cfg.n_members));
  hpc::BdaCostModel model(hpc::reference_calibration(), hpc::FugakuSpec{});
  hpc::ShardMeasure meas;
  meas.ranks = big.ranks;
  meas.advance_cpu_s = big.advance_tts_s * work_scale;
  meas.analysis_cpu_s = big.analysis_tts_s * work_scale;
  meas.shuffle_bytes = big.shuffle_bytes_per_cycle * work_scale;
  const auto& spec = model.spec();
  const int nodes = spec.nodes_analysis + spec.nodes_forecast;
  const auto proj = model.project_shards(meas, nodes);
  std::printf("  projection to %d nodes at paper problem size "
              "(x%.0f work: %.2e cells, %.0f members;\n"
              "   node_speedup %.0f, complexity %.0f):\n",
              proj.nodes, work_scale, paper_cells, paper_members,
              spec.node_speedup, spec.model_complexity);
  std::printf("    advance %.3f s + analysis %.3f s + shuffle %.4f s = "
              "%.3f s per cycle\n",
              proj.t_advance_s, proj.t_analysis_s, proj.t_shuffle_s,
              proj.t_total_s);
  std::printf("    (the in-memory redistribution is noise next to compute — "
              "the paper's point)\n");

  std::ofstream json(json_path);
  json << "{\n";
  for (std::size_t i = 0; i < results.size(); ++i)
    json << "  \"ranks" << results[i].ranks
         << "\": " << results[i].metrics_json
         << (i + 1 < results.size() ? ",\n" : "\n");
  json << "}\n";
  std::printf("  metrics JSON -> %s\n", json_path.c_str());
  return all_bitwise && advance_scales ? 0 : 1;
}
