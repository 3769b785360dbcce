// Time-to-solution of the pipelined 30-s workflow (Fig 4/5 counterpart).
//
// Runs the functional OSSE cycle through workflow::PipelinedDriver — product
// forecasts on rotating worker groups, JIT-DT/regrid overlapping the
// ensemble advance — and reports the wall-clock TTS distribution from "scan
// complete" to "maps written", the quantity Fig 4 defines and Fig 5 tracks
// for 75,248 forecasts (~97% under 3 minutes).
//
// Wall scale: 1/50 of operations.  The 30-s cadence becomes 0.60 s and the
// ~120-s product-forecast runtime becomes 2.40 s of injected wall sleep on
// top of the real (small-grid) forecast compute, so the paper's 3-minute
// TTS bar maps to 3.6 s here, and the bench exits 1 when TTS p97 reaches
// it (or no forecast finished).  The full metrics dump lands in
// BENCH_pipeline_tts.json (path overridable via argv[1]) for the CI
// artifact trail.
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"
#include "util/metrics.hpp"
#include "workflow/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace bda;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_pipeline_tts.json";

  bench::print_header(
      "Pipelined cycle time-to-solution (p50/p97/p99)",
      "Fig 4 (TTS definition), Fig 5 (97% < 3 min over 75,248 forecasts)");

  auto cfg = bench::osse_config(4);
  cfg.cycle_s = 15.0;  // lighter model load per cycle: TTS, not skill
  auto sys = bench::make_storm_system(cfg);

  util::Metrics metrics;
  sys->set_metrics(&metrics);

  constexpr double kWallScale = 1.0 / 50.0;  // operations sec -> bench sec
  workflow::PipelineConfig pcfg;
  pcfg.n_groups = 4;
  pcfg.product_every = 1;
  pcfg.forecast_lead_s = 30.0;  // scaled product horizon (model seconds)
  pcfg.forecast_out_every_s = 15.0;
  pcfg.cycle_sleep_s = 30.0 * kWallScale;
  pcfg.forecast_sleep_s = 120.0 * kWallScale;

  constexpr std::size_t kCycles = 30;
  workflow::PipelinedDriver driver(*sys, pcfg, &metrics);
  driver.run(kCycles);
  driver.drain();

  const auto tts = metrics.timer_stats("pipeline.tts");
  const double bar_s = 180.0 * kWallScale;  // the 3-minute line, scaled
  std::size_t under_bar = 0;
  for (const auto& p : driver.products())
    if (p.tts_s < bar_s) ++under_bar;

  std::printf("  cycles                 : %zu\n", kCycles);
  std::printf("  forecasts launched     : %zu\n", driver.launched());
  std::printf("  forecasts dropped      : %zu\n", driver.dropped());
  std::printf("  TTS p50 / p97 / p99    : %.3f / %.3f / %.3f s\n",
              tts.p50_s, tts.p97_s, tts.p99_s);
  std::printf("  TTS mean / max         : %.3f / %.3f s\n", tts.mean_s,
              tts.max_s);
  std::printf("  under scaled 3-min bar : %zu / %zu (%.1f%%; paper: ~97%%)\n",
              under_bar, driver.products().size(),
              driver.products().empty()
                  ? 0.0
                  : 100.0 * double(under_bar) /
                        double(driver.products().size()));
  std::printf("  scale: 1/50 wall (30-s cadence -> %.2f s, 120-s forecast "
              "-> %.2f s, 3-min bar -> %.2f s)\n",
              pcfg.cycle_sleep_s, pcfg.forecast_sleep_s, bar_s);

  const auto stages = {"cycle.nature",   "cycle.observe", "cycle.jitdt",
                       "cycle.regrid",   "cycle.ensemble", "cycle.letkf",
                       "pipeline.cycle", "pipeline.forecast"};
  std::printf("  per-stage mean wall times:\n");
  for (const char* s : stages) {
    const auto st = metrics.timer_stats(s);
    if (st.count == 0) continue;
    std::printf("    %-18s %8.4f s  (n=%zu)\n", s, st.mean_s, st.count);
  }

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("  metrics JSON -> %s\n", json_path.c_str());

  // Gate: the paper's ~97% under 3 min, read at this scale as TTS p97
  // strictly under the scaled bar.
  const bool pass = tts.count > 0 && tts.p97_s < bar_s;
  std::printf("  acceptance (TTS p97 < %.2f s): %s\n", bar_s,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
