// Windowed metrics for the streaming decode service: counters, gauges,
// and log-bucketed fixed-point histograms, snapshotted every W logical
// rounds into a time-series CSV. The whole-run telemetry aggregates
// (stream/telemetry.hpp) answer "how did the run end"; this registry
// answers "what was the p99 sojourn *during rounds 128..191*" — the
// rolling view the open-system churn work needs (ROADMAP), and the first
// consumer of the obs layer's determinism contract: every value is fed on
// the scheduling thread in fixed order (per-lane values as lane-block
// partials, added in block order), so the CSV is byte-identical at any
// thread count.
//
// Histograms are HDR-style log-bucketed with 3 sub-bucket bits: values
// below 8 are exact, larger values land in one of 8 sub-buckets per
// power of two, bounding the relative quantile error at 12.5%. Quantiles
// report the bucket's *upper* bound, so a histogram quantile never
// understates the exact nearest-rank percentile over the same samples —
// the invariant the tier-1 tests pin against percentile_nearest_rank.
// Integer-only throughout (no FPU in the SFQ telemetry path either).
//
// Window closes are also the service's alerting heartbeat: a registered
// window observer (obs::SloEngine) sees each window's numeric snapshot
// *before* the CSV row is rendered, so any counters it bumps (slo_ok /
// slo_warning / slo_page) land in the very row that triggered them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace qec::obs {

/// Log-bucketed histogram of unsigned 64-bit samples (sojourn rounds,
/// queue depths, cycle counts). Bucket layout with kSubBits = 3:
/// index v for v < 8 (exact), then 8 sub-buckets per octave.
class LogHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;  // 8

  /// Bucket index of `value` (0-based, monotone in value).
  static int bucket_index(std::uint64_t value);
  /// Largest value the bucket covers (its reported quantile bound).
  static std::uint64_t bucket_upper(int index);
  /// Smallest value the bucket covers.
  static std::uint64_t bucket_lower(int index);

  void observe(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  /// Exact maximum observed (tracked outside the buckets).
  std::uint64_t max() const { return max_; }
  /// Exact sum of observed values (Prometheus summary `_sum`).
  std::uint64_t sum() const { return sum_; }

  /// Upper bound of the bucket holding the nearest-rank q-th percentile
  /// (q in (0, 100]); 0 when empty. Never below the exact percentile of
  /// the same samples, and at most 12.5% above it (exact below 8).
  std::uint64_t quantile(double q) const;

  /// Adds `other`'s buckets/count/sum/max into this histogram — how the
  /// cumulative whole-run histogram absorbs each closed window.
  void merge(const LogHistogram& other);

  void reset();

 private:
  std::vector<std::uint64_t> buckets_;  ///< grown lazily to the top index
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sum_ = 0;
};

/// Numeric snapshot of one closed window, handed to the window observer.
/// `values` parallels MetricsRegistry::value_schema(): counters (window
/// deltas), then gauges (value at close), then count/p50/p95/p99/max per
/// histogram. Derived purely from logical rounds — thread-count invariant.
struct WindowSnapshot {
  int index = 0;             ///< window ordinal (CSV `window` column)
  std::int64_t first = 0;    ///< first logical round of the window
  std::int64_t last = 0;     ///< last logical round of the window
  std::int64_t rounds = 0;   ///< rounds executed in the window
  bool partial = false;      ///< trailing window flushed by finish()
  const std::vector<std::int64_t>* values = nullptr;
};

/// A registry of named windowed metrics. Register instruments up front
/// (registration order is CSV column order), feed them as rounds execute,
/// and call tick(round) once per executed logical round: every W-th round
/// closes a window — counters report the window delta, gauges the value
/// at the window's close, histograms the window's count/p50/p95/p99/max —
/// and appends one CSV row. finish() flushes the trailing partial window
/// (flagged by the `partial` column) so short runs and non-multiple round
/// counts never lose their tail.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int window);

  int add_counter(const std::string& name);
  int add_gauge(const std::string& name);
  int add_histogram(const std::string& name);

  void count(int counter, std::uint64_t delta = 1) {
    counters_[static_cast<std::size_t>(counter)].window += delta;
  }
  void set_gauge(int gauge, std::int64_t value) {
    gauges_[static_cast<std::size_t>(gauge)].value = value;
  }
  void observe(int histogram, std::uint64_t value) {
    histograms_[static_cast<std::size_t>(histogram)].hist.observe(value);
  }
  /// Adds a partial histogram (samples observed elsewhere, e.g. by one
  /// lane block) into the open window — the same window as observing
  /// each of its samples here.
  void merge(int histogram, const LogHistogram& part) {
    histograms_[static_cast<std::size_t>(histogram)].hist.merge(part);
  }

  /// Marks logical round `round` executed; closes the window once it
  /// spans `window()` rounds. Rounds must be fed in nondecreasing order.
  void tick(std::int64_t round);

  /// Closes the trailing partial window, if any rounds are pending.
  void finish();

  int window() const { return window_; }
  /// Windows snapshotted so far.
  int windows() const { return static_cast<int>(rows_.size()); }

  /// Column names of a WindowSnapshot's `values` vector, in order:
  /// counters, gauges, then <hist>_count/_p50/_p95/_p99/_max. Stable once
  /// registration is done; later registrations only append.
  std::vector<std::string> value_schema() const;

  /// Installs the window-close observer (at most one; the SLO engine).
  /// Invoked inside close: counters bumped by the observer are included
  /// in the closing window's CSV row, then reset with everything else.
  void set_window_observer(std::function<void(const WindowSnapshot&)> observer) {
    observer_ = std::move(observer);
  }

  // Cumulative whole-run view (fed at each window close) — the source
  // for the Prometheus text snapshot. Counters: lifetime totals; gauges:
  // latest value; histograms: merged across all closed windows.
  int num_counters() const { return static_cast<int>(counters_.size()); }
  const std::string& counter_name(int i) const {
    return counters_[static_cast<std::size_t>(i)].name;
  }
  std::uint64_t counter_total(int i) const {
    return counters_[static_cast<std::size_t>(i)].total;
  }
  int num_gauges() const { return static_cast<int>(gauges_.size()); }
  const std::string& gauge_name(int i) const {
    return gauges_[static_cast<std::size_t>(i)].name;
  }
  std::int64_t gauge_value(int i) const {
    return gauges_[static_cast<std::size_t>(i)].value;
  }
  int num_histograms() const { return static_cast<int>(histograms_.size()); }
  const std::string& histogram_name(int i) const {
    return histograms_[static_cast<std::size_t>(i)].name;
  }
  const LogHistogram& histogram_total(int i) const {
    return histograms_[static_cast<std::size_t>(i)].total;
  }

  /// The time series: header + one row per closed window. Returns false
  /// when the file cannot be opened or a write fails (mirroring the
  /// telemetry writers).
  bool write_csv(const std::string& path) const;

  /// Header + the most recent closed window only — the postmortem
  /// bundle's "what did the last heartbeat look like" file.
  bool write_last_window_csv(const std::string& path) const;

 private:
  void close_window(bool partial);
  std::vector<std::string> header() const;

  struct Counter {
    std::string name;
    std::uint64_t window = 0;
    std::uint64_t total = 0;  ///< cumulative across closed windows
  };
  struct Gauge {
    std::string name;
    std::int64_t value = 0;
  };
  struct Histogram {
    std::string name;
    LogHistogram hist;
    LogHistogram total;  ///< cumulative across closed windows
  };

  int window_ = 64;
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> histograms_;
  std::function<void(const WindowSnapshot&)> observer_;

  bool open_ = false;            ///< a window has pending rounds
  std::int64_t first_ = 0;       ///< first round of the open window
  std::int64_t last_ = 0;        ///< latest round ticked
  std::int64_t ticks_ = 0;       ///< rounds executed in the open window
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace qec::obs
