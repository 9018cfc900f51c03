#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/csv.hpp"

namespace qec::obs {

int LogHistogram::bucket_index(std::uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  const int exp = std::bit_width(value) - 1;  // >= kSubBits
  const int shift = exp - kSubBits;
  const auto sub = static_cast<int>((value >> shift) - kSub);
  return static_cast<int>(kSub) + (shift << kSubBits) + sub;
}

std::uint64_t LogHistogram::bucket_lower(int index) {
  if (index < static_cast<int>(kSub)) return static_cast<std::uint64_t>(index);
  const int shift = (index - static_cast<int>(kSub)) >> kSubBits;
  const int sub = (index - static_cast<int>(kSub)) & (static_cast<int>(kSub) - 1);
  return (kSub + static_cast<std::uint64_t>(sub)) << shift;
}

std::uint64_t LogHistogram::bucket_upper(int index) {
  if (index < static_cast<int>(kSub)) return static_cast<std::uint64_t>(index);
  const int shift = (index - static_cast<int>(kSub)) >> kSubBits;
  return bucket_lower(index) + ((1ULL << shift) - 1);
}

void LogHistogram::observe(std::uint64_t value) {
  const auto index = static_cast<std::size_t>(bucket_index(value));
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // The bucket's upper bound, capped at the exact max: never below
      // the exact nearest-rank percentile of the same samples.
      return std::min(bucket_upper(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LogHistogram::reset() {
  buckets_.clear();
  count_ = 0;
  max_ = 0;
  sum_ = 0;
}

MetricsRegistry::MetricsRegistry(int window) : window_(window < 1 ? 1 : window) {}

int MetricsRegistry::add_counter(const std::string& name) {
  counters_.push_back({name, 0, 0});
  return static_cast<int>(counters_.size()) - 1;
}

int MetricsRegistry::add_gauge(const std::string& name) {
  gauges_.push_back({name, 0});
  return static_cast<int>(gauges_.size()) - 1;
}

int MetricsRegistry::add_histogram(const std::string& name) {
  histograms_.push_back({});
  histograms_.back().name = name;
  return static_cast<int>(histograms_.size()) - 1;
}

void MetricsRegistry::tick(std::int64_t round) {
  if (!open_) {
    open_ = true;
    first_ = round;
  }
  last_ = round;
  ++ticks_;
  if (round - first_ + 1 >= window_) close_window(/*partial=*/false);
}

void MetricsRegistry::finish() {
  if (open_ && ticks_ > 0) close_window(/*partial=*/true);
}

std::vector<std::string> MetricsRegistry::value_schema() const {
  std::vector<std::string> names;
  names.reserve(counters_.size() + gauges_.size() + 5 * histograms_.size());
  for (const auto& counter : counters_) names.push_back(counter.name);
  for (const auto& gauge : gauges_) names.push_back(gauge.name);
  for (const auto& histogram : histograms_) {
    names.push_back(histogram.name + "_count");
    names.push_back(histogram.name + "_p50");
    names.push_back(histogram.name + "_p95");
    names.push_back(histogram.name + "_p99");
    names.push_back(histogram.name + "_max");
  }
  return names;
}

void MetricsRegistry::close_window(bool partial) {
  // Numeric snapshot first (value_schema() order), then the observer: any
  // counters the SLO engine bumps land in this window's rendered row.
  std::vector<std::int64_t> values;
  values.reserve(counters_.size() + gauges_.size() + 5 * histograms_.size());
  for (const auto& counter : counters_) {
    values.push_back(static_cast<std::int64_t>(counter.window));
  }
  for (const auto& gauge : gauges_) values.push_back(gauge.value);
  for (const auto& histogram : histograms_) {
    values.push_back(static_cast<std::int64_t>(histogram.hist.count()));
    values.push_back(static_cast<std::int64_t>(histogram.hist.quantile(50)));
    values.push_back(static_cast<std::int64_t>(histogram.hist.quantile(95)));
    values.push_back(static_cast<std::int64_t>(histogram.hist.quantile(99)));
    values.push_back(static_cast<std::int64_t>(histogram.hist.max()));
  }
  if (observer_) {
    WindowSnapshot snapshot;
    snapshot.index = static_cast<int>(rows_.size());
    snapshot.first = first_;
    snapshot.last = last_;
    snapshot.rounds = ticks_;
    snapshot.partial = partial;
    snapshot.values = &values;
    observer_(snapshot);
  }

  std::vector<std::string> row;
  row.reserve(5 + counters_.size() + gauges_.size() + 5 * histograms_.size());
  row.push_back(std::to_string(rows_.size()));
  row.push_back(std::to_string(first_));
  row.push_back(std::to_string(last_));
  row.push_back(std::to_string(ticks_));
  row.push_back(partial ? "1" : "0");
  for (auto& counter : counters_) {
    row.push_back(std::to_string(counter.window));
    counter.total += counter.window;
    counter.window = 0;  // counters report per-window deltas
  }
  for (const auto& gauge : gauges_) {
    row.push_back(std::to_string(gauge.value));  // value at window close
  }
  for (auto& histogram : histograms_) {
    row.push_back(std::to_string(histogram.hist.count()));
    row.push_back(std::to_string(histogram.hist.quantile(50)));
    row.push_back(std::to_string(histogram.hist.quantile(95)));
    row.push_back(std::to_string(histogram.hist.quantile(99)));
    row.push_back(std::to_string(histogram.hist.max()));
    histogram.total.merge(histogram.hist);
    histogram.hist.reset();  // histograms cover one window each
  }
  rows_.push_back(std::move(row));
  open_ = false;
  ticks_ = 0;
}

std::vector<std::string> MetricsRegistry::header() const {
  std::vector<std::string> header = {"window", "round_first", "round_last",
                                     "rounds", "partial"};
  for (const auto& name : value_schema()) header.push_back(name);
  return header;
}

bool MetricsRegistry::write_csv(const std::string& path) const {
  CsvWriter csv(path, header());
  if (!csv.ok()) return false;
  for (const auto& row : rows_) csv.add_row(row);
  return csv.flush();
}

bool MetricsRegistry::write_last_window_csv(const std::string& path) const {
  CsvWriter csv(path, header());
  if (!csv.ok()) return false;
  if (!rows_.empty()) csv.add_row(rows_.back());
  return csv.flush();
}

}  // namespace qec::obs
