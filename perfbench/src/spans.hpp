// Benchmark-side tracing and small statistics helpers.
//
// Spans are recorded by the benchmark's own code around each call into the
// library (record_trace, run_stream, run_sweep, the obs writers, ...), kept
// in memory, and written as Chrome-trace JSON when the run ends. Spans nest
// on the calling thread: each span remembers the span that was open when it
// started (its parent) and the iteration it belongs to, so the summary can
// report self time (duration minus the time covered by child spans).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
    int iteration = -1;  ///< iteration the span belongs to (-1: set-up/probe)
  };

  /// A disabled recorder keeps nothing; every call is one branch.
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Spans opened from now on carry this iteration id.
  void set_iteration(int iteration) { iteration_ = iteration; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.start_ns = now_ns();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.iteration = iteration_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (!enabled_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records an already-finished span under the currently open one.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    Span span;
    span.name = name;
    span.start_ns = offset_ns(start);
    span.end_ns = offset_ns(end);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.iteration = iteration_;
    spans_.push_back(std::move(span));
  }

  /// RAII span; a disabled recorder records nothing.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name)
        : spans_(spans), id_(spans.open(name)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    const int id_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Per-name count, total and self time (self = duration minus the time
  /// covered by direct children).
  std::map<std::string, Totals> totals() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::uint64_t dur = span.end_ns - span.start_ns;
      Totals& t = out[span.name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) * 1e-6;
      t.self_ms += static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-6;
    }
    return out;
  }

  /// Chrome-trace JSON ("X" complete events, microsecond timestamps); the
  /// iteration id and parent index ride in each event's args. Returns
  /// false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (!out) return false;
    std::fputs("{\"traceEvents\": [\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                   "\"parent\": %d, \"iteration\": %d}}",
                   i ? ",\n" : "", s.name.c_str(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, s.iteration);
    }
    std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::uint64_t offset_ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }
  std::uint64_t now_ns() const { return offset_ns(Clock::now()); }

  bool enabled_ = false;
  Clock::time_point epoch_;
  int iteration_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
