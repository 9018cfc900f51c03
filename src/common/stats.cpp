#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace qec {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void MatchStats::record(int dt) {
  if (static_cast<std::size_t>(dt) >= vertical_hist.size()) {
    vertical_hist.resize(static_cast<std::size_t>(dt) + 1, 0);
  }
  ++vertical_hist[static_cast<std::size_t>(dt)];
  if (dt >= 3) ++vertical_ge3;
}

void MatchStats::merge(const MatchStats& other) {
  pair_matches += other.pair_matches;
  self_matches += other.self_matches;
  boundary_matches += other.boundary_matches;
  vertical_ge3 += other.vertical_ge3;
  if (vertical_hist.size() < other.vertical_hist.size()) {
    vertical_hist.resize(other.vertical_hist.size(), 0);
  }
  for (std::size_t i = 0; i < other.vertical_hist.size(); ++i) {
    vertical_hist[i] += other.vertical_hist[i];
  }
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

BinomialInterval wilson_interval(std::uint64_t k, std::uint64_t n, double z) {
  if (n == 0) return {0.0, 1.0};
  const double nn = static_cast<double>(n);
  const double phat = static_cast<double>(k) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = phat + z2 / (2.0 * nn);
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / nn + z2 / (4.0 * nn * nn));
  BinomialInterval out;
  out.lower = std::max(0.0, (center - half) / denom);
  out.upper = std::min(1.0, (center + half) / denom);
  return out;
}

namespace {

// Nearest rank = ceil(q/100 * n), clamped to [1, n]; rank r is the
// (r-1)-th order statistic.
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  q = std::clamp(q, 0.0, 100.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

using Run = ValueCounts::Run;

// Tallies (value, count) pairs with values in [lo, hi], any order, equal
// values allowed, into ascending runs. `for_each(add)` calls add(value,
// count) once per pair. A span no wider than a few times the pair count
// (cycle and round counts) is counted in one dense pass, O(pairs + span);
// a wider one is sorted, O(pairs log pairs), so memory stays O(pairs).
template <class ForEach>
std::vector<Run> tally(std::uint64_t lo, std::uint64_t hi, std::size_t pairs,
                       const ForEach& for_each) {
  std::vector<Run> runs;
  if (hi - lo <= 2 * pairs + 1024) {
    // Spans up to a few KiB of counters (every service table) stay on the
    // stack: this runs once per lane and table in the service's finalize.
    const auto width = static_cast<std::size_t>(hi - lo) + 1;
    std::uint64_t small[512];
    std::vector<std::uint64_t> large;
    std::uint64_t* counts = small;
    if (width <= std::size(small)) {
      std::fill_n(small, width, 0);
    } else {
      large.assign(width, 0);
      counts = large.data();
    }
    std::size_t distinct = 0;
    for_each([&](std::uint64_t v, std::uint64_t c) {
      distinct += counts[v - lo] == 0 ? 1 : 0;
      counts[v - lo] += c;
    });
    runs.reserve(distinct);
    for (std::size_t i = 0; i < width; ++i) {
      if (counts[i]) runs.push_back({lo + i, counts[i]});
    }
    return runs;
  }
  runs.reserve(pairs);
  for_each([&](std::uint64_t v, std::uint64_t c) { runs.push_back({v, c}); });
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.value < b.value; });
  std::size_t out = 0;
  for (const Run& r : runs) {
    if (out && runs[out - 1].value == r.value) {
      runs[out - 1].count += r.count;
    } else {
      runs[out++] = r;
    }
  }
  runs.resize(out);
  runs.shrink_to_fit();
  return runs;
}

}  // namespace

std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> samples,
                                      double q) {
  if (samples.empty()) return 0;
  auto nth = samples.begin() +
             static_cast<std::ptrdiff_t>(nearest_rank(q, samples.size()) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

ValueCounts::ValueCounts(const std::vector<std::uint64_t>& samples)
    : total_(samples.size()) {
  if (samples.empty()) return;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  runs_ = tally(*lo, *hi, samples.size(), [&](const auto& add) {
    for (const std::uint64_t v : samples) add(v, 1);
  });
}

ValueCounts ValueCounts::from_dense(const std::vector<std::uint64_t>& counts) {
  ValueCounts out;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] == 0) continue;
    out.runs_.push_back({v, counts[v]});
    out.total_ += counts[v];
  }
  return out;
}

ValueCounts ValueCounts::sum(const std::vector<const ValueCounts*>& tables) {
  ValueCounts out;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
  std::size_t pairs = 0;
  for (const ValueCounts* t : tables) {
    if (t->empty()) continue;
    lo = std::min(lo, t->min());
    hi = std::max(hi, t->max());
    pairs += t->runs_.size();
    out.total_ += t->total_;
  }
  if (pairs == 0) return out;
  out.runs_ = tally(lo, hi, pairs, [&](const auto& add) {
    for (const ValueCounts* t : tables) {
      for (const Run& r : t->runs_) add(r.value, r.count);
    }
  });
  return out;
}

void ValueCounts::merge(const ValueCounts& other) {
  *this = sum({this, &other});
}

double ValueCounts::mean() const {
  std::uint64_t sum = 0;
  for (const Run& r : runs_) sum += r.value * r.count;
  return total_ ? static_cast<double>(sum) / static_cast<double>(total_)
                : 0.0;
}

std::uint64_t ValueCounts::percentile(double q) const {
  if (total_ == 0) return 0;
  const std::uint64_t rank = nearest_rank(q, total_);
  std::uint64_t seen = 0;
  for (const Run& r : runs_) {
    seen += r.count;
    if (seen >= rank) return r.value;
  }
  return runs_.back().value;  // unreachable: the counts sum to total_
}

}  // namespace qec
