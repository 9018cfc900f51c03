// Streaming statistics and binomial confidence intervals used throughout the
// Monte Carlo harness and the cycle-count tables.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace qec {

/// Single-pass mean / variance / extrema accumulator (Welford's algorithm;
/// numerically stable for long runs).
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divides by n). Table III reports sigma over all
  /// layers, i.e. a population statistic.
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Aggregate matching statistics (Fig 4b instrumentation). Lives here
/// rather than with the QECOOL engine so the generic Decoder interface and
/// the Monte Carlo merge path can use it without depending on qecool/.
struct MatchStats {
  std::uint64_t pair_matches = 0;      ///< Unit-to-other-Unit matches.
  std::uint64_t self_matches = 0;      ///< Pure time-like (same Unit).
  std::uint64_t boundary_matches = 0;  ///< Unit-to-Boundary matches.
  std::uint64_t vertical_ge3 = 0;      ///< Matches with |t - b| >= 3.
  std::vector<std::uint64_t> vertical_hist;  ///< [dt] -> count.

  std::uint64_t total() const {
    return pair_matches + self_matches + boundary_matches;
  }
  void record(int dt);
  /// Merges another accumulator (parallel reduction).
  void merge(const MatchStats& other);
};

/// Two-sided binomial confidence interval.
struct BinomialInterval {
  double lower = 0.0;
  double upper = 1.0;
};

/// Wilson score interval for k successes out of n trials at ~95% confidence
/// (z = 1.96). Well-behaved at k = 0 and k = n, unlike the normal
/// approximation — important for low logical-error-rate points.
BinomialInterval wilson_interval(std::uint64_t k, std::uint64_t n,
                                 double z = 1.96);

/// Nearest-rank percentile: the smallest sample such that at least q% of
/// the samples are <= it (q in [0, 100]; q = 50 is the median). Returns 0
/// for an empty sample set. Exact — the streaming-telemetry p50/p95/p99
/// are real observed latencies, never interpolated values.
std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> samples,
                                      double q);

/// Exact multiset of unsigned samples, stored as (value, count) runs in
/// ascending value order: O(distinct values) memory, whatever the values'
/// magnitude. percentile() is percentile_nearest_rank over the samples the
/// table was built from, so order statistics read off counts are the same
/// observed values a sort would give, never interpolated.
class ValueCounts {
 public:
  struct Run {
    std::uint64_t value = 0;
    std::uint64_t count = 0;
    bool operator==(const Run&) const = default;
  };

  ValueCounts() = default;
  /// Counts `samples` (any order).
  explicit ValueCounts(const std::vector<std::uint64_t>& samples);

  /// The table a dense tally describes: counts[v] samples of value v.
  /// Equal to ValueCounts(samples) for any sample list with those counts.
  static ValueCounts from_dense(const std::vector<std::uint64_t>& counts);

  /// The counts of all `tables` together, in one pass over their runs:
  /// O(runs + value span) when the values span a narrow range, as they do
  /// for an aggregate over thousands of lanes.
  static ValueCounts sum(const std::vector<const ValueCounts*>& tables);

  /// Number of samples.
  std::uint64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }
  /// Smallest / largest sample (0 when empty).
  std::uint64_t min() const { return runs_.empty() ? 0 : runs_.front().value; }
  std::uint64_t max() const { return runs_.empty() ? 0 : runs_.back().value; }
  /// Arithmetic mean of the samples (0.0 when empty).
  double mean() const;
  /// Nearest-rank percentile, q in [0, 100] (0 when empty).
  std::uint64_t percentile(double q) const;

  /// Adds every sample of `other` (the counts of the concatenation);
  /// sum() of the two tables.
  void merge(const ValueCounts& other);

  const std::vector<Run>& runs() const { return runs_; }
  bool operator==(const ValueCounts&) const = default;

 private:
  std::vector<Run> runs_;
  std::uint64_t total_ = 0;
};

}  // namespace qec
