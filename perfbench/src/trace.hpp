// Span recorder for the traced benchmark run.
//
// The benchmark records spans from its own code, around each call it makes
// into a public function of the program (choosing-metrics: "spans inside
// the program are a later change").  A span carries its name (the layer
// module, then the call: "scale.advance"), its wall interval on the
// monotonic clock, the span that caused it and the id of the refresh it
// belongs to.  Spans stay in memory and are written as Chrome trace-event
// JSON when the run ends; that format loads in Perfetto and chrome://tracing
// with no dependency.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double t0_ms = 0;
  double t1_ms = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  long cycle = -1;  ///< refresh id shared by every span of one refresh
  int tid = 0;      ///< 0 = driving thread, 1.. = other program threads
  double dur_ms() const { return t1_ms - t0_ms; }
};

/// Layer of a span: its name up to the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  /// Spans are recorded only while enabled (the traced refreshes).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span now; returns its index, or -1 when disabled.
  int open(std::string name, long cycle, int parent = -1, int tid = 0) {
    if (!enabled_) return -1;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), t, t, parent, cycle, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1_ms = t;
  }
  /// Record a completed span whose times were stamped elsewhere (callbacks,
  /// the driver's product records).  Recorded whether enabled or not: the
  /// caller decides which refreshes are traced.
  int add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};  ///< read by program threads
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, long cycle, int parent = -1)
      : t_(t), id_(t.open(name, cycle, parent)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Length of the union of `iv` clipped to [lo, hi].
inline double covered_ms(std::vector<std::pair<double, double>> iv,
                         double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur0 = lo, cur1 = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur1) {
      total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  return total + (cur1 - cur0);
}

/// Children of every span, by index.
inline std::vector<std::vector<int>> children_of(const std::vector<Span>& s) {
  std::vector<std::vector<int>> ch(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s[i].parent >= 0) ch[static_cast<std::size_t>(s[i].parent)].push_back(
        static_cast<int>(i));
  return ch;
}

/// Self time of span `i`: its duration minus the part its children cover.
inline double self_ms(const std::vector<Span>& s,
                      const std::vector<std::vector<int>>& ch, std::size_t i) {
  std::vector<std::pair<double, double>> iv;
  for (int c : ch[i]) {
    const Span& k = s[static_cast<std::size_t>(c)];
    iv.emplace_back(k.t0_ms, k.t1_ms);
  }
  return s[i].dur_ms() - covered_ms(iv, s[i].t0_ms, s[i].t1_ms);
}

/// Write the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds).  Returns false if the file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"cycle\":%ld}}\n",
                 i ? "," : "", s.name.c_str(), layer_of(s.name).c_str(),
                 s.t0_ms * 1e3, s.dur_ms() * 1e3, s.tid, i, s.parent,
                 s.cycle);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
