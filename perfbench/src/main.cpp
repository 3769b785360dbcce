// Benchmark driver: runs one workload with a seed, checks its outputs and
// prints the run record, then one JSON line with every metric by name.
//
//   bda_perfbench --workload <serial_refresh|dense_sharded|pipelined_ops>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file.json>] [--slow-forecast-s <s>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans as Chrome trace-event JSON to --trace-out).
// --slow-forecast-s is the self-test's fault: every product forecast of
// pipelined_ops sleeps that long, so the rotating groups stay busy.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"refresh_p50_ms", "ms"},
    {"refresh_tail_ms", "ms"}, {"refreshes_per_s", "1/s"},
    {"tts_p50_ms", "ms"},      {"tts_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"scale.advance_ms", "ms"},
    {"scale.forecast_ms", "ms"},
    {"scale.member_steps", "count"},
    {"scale.advance_mb_computed", "MB"},
    {"letkf.analysis_ms", "ms"},
    {"letkf.weight_solves", "count"},
    {"letkf.weight_reuse", "count"},
    {"letkf.reuse_ratio", "ratio"},
    {"letkf.eig_batches", "count"},
    {"letkf.eig_fail", "count"},
    {"letkf.mean_local_obs", "count"},
    {"pawr.observe_ms", "ms"},
    {"pawr.regrid_ms", "ms"},
    {"pawr.obs", "count"},
    {"jitdt.transfer_ms", "ms"},
    {"jitdt.bytes", "B"},
    {"jitdt.restarts", "count"},
    {"hpc.shuffle_mb_computed", "MB"},
    {"hpc.peak_mailbox_depth", "count"},
    {"workflow.admit_wait_ms", "ms"},
    {"workflow.launched", "count"},
    {"workflow.dropped", "count"},
    {"workflow.group_busy_share", "ratio"},
    {"serve.publish_ms", "ms"},
    {"serve.fetch_ms", "ms"},
    {"serve.delta_share", "ratio"},
    {"serve.tile_kb", "KB"},
    {"serve.superseded", "count"},
    {"serve.restarts", "count"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"failed_share", "ratio"},
};

/// Percentile with linear interpolation between order statistics.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/// The tail: the highest of these percentiles with at least ten samples
/// beyond it.  The rungs need 1000, 200, 40 and 20 samples.  They are far
/// apart, so run-to-run changes in the sample count rarely move the
/// percentile that is reported: every workload runs 50-100 refreshes in
/// 20 s on the 4-core development host, which is p75 throughout.
double tail_pct(std::size_t n) {
  for (double p : {99.0, 95.0, 75.0, 50.0})
    if (double(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

std::string flush_mode() {
#if defined(__x86_64__) || defined(__i386__)
  const unsigned csr = _mm_getcsr();
  return std::string("FTZ ") + ((csr & 0x8000u) ? "on" : "off") + ", DAZ " +
         ((csr & 0x0040u) ? "on" : "off");
#else
  return "unknown";
#endif
}

/// Host CPU time counters (/proc/stat "cpu" line, in ticks): total and
/// steal, the time the hypervisor ran something else on our vCPUs.
struct CpuTimes {
  unsigned long long total = 0, steal = 0;
};
CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// OpenMP team a thread other than the driving one starts with.
int worker_team() {
  int n = 0;
  std::thread([&] { n = omp_get_max_threads(); }).join();
  return n;
}

void usage() {
  std::fprintf(stderr,
               "usage: bda_perfbench --workload "
               "<serial_refresh|dense_sharded|pipelined_ops> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--slow-forecast-s <s>]\n");
}

bool parse(int argc, char** argv, Options& o) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_w = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_s = *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
      have_t = true;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--slow-forecast-s") {
      o.slow_forecast_s = std::strtod(v.c_str(), &end);
      if (*end != '\0' || o.slow_forecast_s < 0) return false;
    } else {
      return false;
    }
  }
  return have_w && have_seed && have_s && have_t;
}

struct Value {
  double v = 0;
  std::string unit;
  std::string detail;  ///< sample count and percentile, for the record
};

/// Per-layer self time, unattributed refresh time and the per-layer call
/// times, all from the spans of the traced refreshes.
struct TraceSummary {
  std::map<std::string, std::vector<double>> call_ms;  ///< by metric name
  std::map<std::string, std::vector<double>> self_ms;  ///< by layer
  std::vector<double> unattributed_ms;
};

TraceSummary summarize(const RunOutcome& r) {
  TraceSummary t;
  const auto& s = r.spans;
  const auto ch = children_of(s);
  std::map<long, std::map<std::string, double>> self_by_cycle;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double self = self_ms(s, ch, i);
    self_by_cycle[s[i].cycle][layer_of(s[i].name)] += self;
    if (s[i].name == "workflow.refresh") {
      t.unattributed_ms.push_back(self);
    } else if (s[i].name != "bench.check") {
      t.call_ms[s[i].name + "_ms"].push_back(s[i].dur_ms());
    }
  }
  for (const auto& [cycle, layers] : self_by_cycle)
    for (const auto& [layer, ms] : layers) t.self_ms[layer].push_back(ms);
  return t;
}

std::map<std::string, Value> end_to_end(const RunOutcome& r) {
  std::map<std::string, Value> m;
  auto detail = [](std::size_t n, double p) {
    char b[64];
    std::snprintf(b, sizeof b, "n=%zu p%.0f", n, p);
    return std::string(b);
  };
  const double rp = tail_pct(r.refresh_ms.size());
  const double tp = tail_pct(r.tts_ms.size());
  m["setup_s"] = {percentile(r.setup_s, 50), "s",
                  detail(r.setup_s.size(), 50)};
  m["refresh_p50_ms"] = {percentile(r.refresh_ms, 50), "ms",
                         detail(r.refresh_ms.size(), 50)};
  m["refresh_tail_ms"] = {percentile(r.refresh_ms, rp), "ms",
                          detail(r.refresh_ms.size(), rp)};
  m["refreshes_per_s"] = {r.busy_s > 0 ? double(r.refresh_ms.size()) / r.busy_s
                                       : 0,
                          "1/s", "n=" + std::to_string(r.refresh_ms.size())};
  m["tts_p50_ms"] = {percentile(r.tts_ms, 50), "ms",
                     detail(r.tts_ms.size(), 50)};
  m["tts_tail_ms"] = {percentile(r.tts_ms, tp), "ms",
                      detail(r.tts_ms.size(), tp)};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB", "process peak"};
  return m;
}

std::map<std::string, Value> per_layer(const RunOutcome& r,
                                       const TraceSummary& t) {
  std::map<std::string, Value> m;
  for (const auto& d : kPerLayer) {
    Value v{0, d.unit, ""};
    const std::string name = d.name;
    const auto pr = r.per_refresh.find(name);
    const auto sp = t.call_ms.find(name);
    const auto ly = r.layer.find(name);
    const std::vector<double>* samples = nullptr;
    if (pr != r.per_refresh.end()) samples = &pr->second;
    else if (sp != t.call_ms.end()) samples = &sp->second;
    if (samples) {
      v.v = percentile(*samples, 50);
      v.detail = "p50 n=" + std::to_string(samples->size());
    } else if (ly != r.layer.end()) {
      v.v = ly->second;
      v.detail = "run total or ratio";
    } else {
      v.detail = "not on this workload's path";
    }
    m[name] = v;
  }
  m["trace.unattributed_ms"] = {
      percentile(t.unattributed_ms, 50), "ms",
      "p50 n=" + std::to_string(t.unattributed_ms.size())};
  const double traced = percentile(r.refresh_traced_ms, 50);
  const double untraced = percentile(r.refresh_untraced_ms, 50);
  m["trace.overhead_pct"] = {
      untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0, "%",
      "traced p50 " + std::to_string(traced) + " ms (n=" +
          std::to_string(r.refresh_traced_ms.size()) + ") vs untraced " +
          std::to_string(untraced) + " ms (n=" +
          std::to_string(r.refresh_untraced_ms.size()) + ")"};
  m["failed_share"] = {
      r.attempted ? double(r.failed) / double(r.attempted) : 0, "ratio",
      std::to_string(r.failed) + "/" + std::to_string(r.attempted)};
  return m;
}

int run(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  const CpuTimes cpu0 = cpu_times();
  RunOutcome r;
  if (o.workload == "serial_refresh") r = run_serial_refresh(o);
  else if (o.workload == "dense_sharded") r = run_dense_sharded(o);
  else if (o.workload == "pipelined_ops") r = run_pipelined_ops(o);
  else {
    usage();
    return 2;
  }

  const CpuTimes cpu1 = cpu_times();
  const double steal_pct =
      cpu1.total > cpu0.total ? 100.0 * double(cpu1.steal - cpu0.steal) /
                                    double(cpu1.total - cpu0.total)
                              : 0.0;
  const ThreadBudget& b = r.budget;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("host: cpu \"%s\"; nproc %d; -march=%s; %s; steal %.1f%% of "
              "host CPU time during the run\n",
              cpu_model().c_str(), b.nproc, PERFBENCH_MARCH,
              flush_mode().c_str(), steal_pct);
  std::printf("threads: set-up team %d; refresh team %d; ranks %d x 1 "
              "thread; groups %d x 1 thread; other threads' OpenMP team %d; "
              "peak compute threads %d of %d; helpers: %s\n",
              b.setup_team, b.main_team, b.ranks, b.groups, worker_team(),
              b.peak_compute, b.nproc, b.note.c_str());
  for (const auto& [k, v] : r.config)
    std::printf("config %s: %s\n", k.c_str(), v.c_str());
  std::printf("samples: set-ups %zu (", r.setup_s.size());
  for (double v : r.setup_s) std::printf(" %.3f", v);
  std::printf(" s), refreshes %zu (traced %zu), tts %zu\n",
              r.refresh_ms.size(), r.refresh_traced_ms.size(),
              r.tts_ms.size());

  bool correct = r.correct;
  std::vector<std::string> notes = r.check_notes;
  if (b.peak_compute > b.nproc) {
    correct = false;
    notes.push_back("thread budget exceeds nproc");
  }
  if (worker_team() != 1) {
    correct = false;
    notes.push_back("OMP_NUM_THREADS is not 1 for non-driving threads");
  }
  const auto& e = r.err;
  const double n_err = e.n ? double(e.n) : 1.0;
  if (!(e.n > 0 && e.dbz_an < e.dbz_bg)) {
    correct = false;
    notes.push_back("analysis-mean reflectivity error is not below the "
                    "background's");
  }
  std::printf("check: RMSE of the ensemble mean vs truth over %zu "
              "refreshes, background -> analysis: 2-km reflectivity %.4f -> "
              "%.4f dBZ, wind %.5f -> %.5f kg/m2/s\n",
              e.n, e.dbz_bg / n_err, e.dbz_an / n_err, e.wind_bg / n_err,
              e.wind_an / n_err);
  std::printf("failures: %zu of %zu refreshes", r.failed, r.attempted);
  for (const auto& [cause, n] : r.failures)
    std::printf("; %s %zu", cause.c_str(), n);
  std::printf("\n");
  for (const auto& n : notes) std::printf("check failed: %s\n", n.c_str());

  std::map<std::string, Value> metrics;
  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const std::size_t n_defs =
      o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (o.trace) {
    const TraceSummary t = summarize(r);
    metrics = per_layer(r, t);
    std::printf("trace: self time per layer (p50 per traced refresh):");
    for (const auto& [layer, v] : t.self_ms)
      std::printf(" %s %.3f ms;", layer.c_str(), percentile(v, 50));
    std::printf(" unattributed %.3f ms; overhead %.2f %%\n",
                metrics["trace.unattributed_ms"].v,
                metrics["trace.overhead_pct"].v);
    if (!o.trace_out.empty()) {
      if (write_chrome_trace(o.trace_out, r.spans))
        std::printf("trace: %zu spans -> %s\n", r.spans.size(),
                    o.trace_out.c_str());
      else
        std::printf("trace: cannot write %s\n", o.trace_out.c_str());
    }
  } else {
    metrics = end_to_end(r);
  }
  for (std::size_t i = 0; i < n_defs; ++i) {
    const Value& v = metrics[defs[i].name];
    std::printf("metric %-26s %14.6f %-6s %s\n", defs[i].name, v.v,
                v.unit.c_str(), v.detail.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < n_defs; ++i) {
    const Value& v = metrics[defs[i].name];
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name,
                  std::isfinite(v.v) ? v.v : 0.0, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every thread but the driving one must start with a one-thread OpenMP
  // team.  The runtime reads OMP_NUM_THREADS once, before main, so set it
  // and start again.
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || std::strcmp(env, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::perror("execv");
    return 1;
  }
  return perfbench::run(argc, argv);
}
