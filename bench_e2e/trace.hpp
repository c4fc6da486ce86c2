// Outside-in tracing and sample statistics for the end-to-end benchmark.
//
// The benchmark wraps each call it makes into a layer's public functions
// in a Span (name, start, end, parent, round id). Spans stay in memory
// and are written out when the run ends; a span's self time is its
// duration minus the time its child spans cover. A disabled SpanLog
// costs one predictable branch per scope. Untraced one-member rounds
// still take another path than traced ones: they call
// BarotropicMode::step, so that the end-to-end metrics time the model's
// own step, while traced rounds make its three calls one by one to time
// each.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 at top level
    long round;  ///< all spans of one replayed round share it
    double t0, t1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int open(const char* name, long round) {
    if (!enabled_) return -1;
    spans_.push_back({name, current_, round, now_seconds(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].t1 = now_seconds();
    current_ = spans_[id].parent;
  }

  /// Durations [s] of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name) out.push_back(s.t1 - s.t0);
    return out;
  }

  /// Self time of every span: duration minus its direct children.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].t1 - spans_[i].t0;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.t1 - s.t0;
    return self;
  }

  /// Write every span as one JSON object per line (times in seconds
  /// from the first span). Returns false if the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"round\": %ld, \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f}\n",
                   i, s.name, s.parent, s.round, s.t0 - base, s.t1 - base,
                   self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, long round)
      : log_(log), id_(log.open(name, round)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Median plus the highest whole percentile that still has at least ten
/// samples beyond it (nearest-rank), with the sample count. `tail_pct`
/// is 0 when there are too few samples for such a percentile.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  int tail_pct = 0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n > 10) {
    s.tail_pct = static_cast<int>(100 * (n - 10) / n);
    const auto rank = static_cast<std::size_t>(
        std::ceil(s.tail_pct * static_cast<double>(n) / 100.0));
    s.tail = v[std::max<std::size_t>(rank, 1) - 1];
  }
  return s;
}

inline double median(const std::vector<double>& v) {
  return summarize(v).median;
}

/// Mean of `v` after dropping its slowest (largest) `drop` fraction of
/// samples (0 when empty).
inline double trimmed_mean(std::vector<double> v, double drop) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t keep = std::max<std::size_t>(
      1, v.size() - static_cast<std::size_t>(drop * v.size()));
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += v[i];
  return sum / keep;
}

}  // namespace bench
