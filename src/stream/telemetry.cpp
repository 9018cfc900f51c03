#include "stream/telemetry.hpp"

#include <algorithm>
#include <cstdio>

#include "common/csv.hpp"

namespace qec {
namespace {

std::string fmt_double(double value, const char* spec = "%.6g") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), spec, value);
  return buffer;
}

}  // namespace

double LaneTelemetry::mean_depth() const {
  std::uint64_t rounds = 0, weighted = 0;
  for (std::size_t k = 0; k < depth_hist.size(); ++k) {
    rounds += depth_hist[k];
    weighted += depth_hist[k] * k;
  }
  return rounds ? static_cast<double>(weighted) / static_cast<double>(rounds)
                : 0.0;
}

int LaneTelemetry::max_depth() const {
  for (std::size_t k = depth_hist.size(); k-- > 0;) {
    if (depth_hist[k]) return static_cast<int>(k);
  }
  return 0;
}

LaneTelemetry StreamTelemetry::aggregate() const {
  LaneTelemetry all;
  all.lane = -1;
  all.drained = !lanes.empty();
  std::vector<const ValueCounts*> cycles, sojourns;
  cycles.reserve(lanes.size());
  sojourns.reserve(lanes.size());
  for (const auto& lane : lanes) {
    all.overflow |= lane.overflow;
    all.drained &= lane.drained;
    all.logical_failure |= lane.logical_failure;
    all.rounds_streamed += lane.rounds_streamed;
    all.drain_rounds += lane.drain_rounds;
    all.served_rounds += lane.served_rounds;
    all.starved_rounds += lane.starved_rounds;
    all.paused_rounds += lane.paused_rounds;
    all.pauses += lane.pauses;
    all.resumes += lane.resumes;
    all.popped_layers += lane.popped_layers;
    all.total_cycles += lane.total_cycles;
    if (all.depth_hist.size() < lane.depth_hist.size()) {
      all.depth_hist.resize(lane.depth_hist.size(), 0);
    }
    for (std::size_t k = 0; k < lane.depth_hist.size(); ++k) {
      all.depth_hist[k] += lane.depth_hist[k];
    }
    cycles.push_back(&lane.layer_cycles);
    sojourns.push_back(&lane.sojourn_rounds);
    all.matches.merge(lane.matches);
    all.cache.merge(lane.cache);
  }
  // One pass over every lane's runs per table, not a merge per lane.
  all.layer_cycles = ValueCounts::sum(cycles);
  all.sojourn_rounds = ValueCounts::sum(sojourns);
  return all;
}

int StreamTelemetry::overflow_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.overflow; }));
}

int StreamTelemetry::drained_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.drained; }));
}

int StreamTelemetry::failed_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.failed(); }));
}

int StreamTelemetry::ever_paused_lanes() const {
  return static_cast<int>(std::count_if(
      lanes.begin(), lanes.end(), [](const auto& l) { return l.pauses > 0; }));
}

double StreamTelemetry::pool_utilization() const {
  std::int64_t busy = 0, idle = 0;
  for (const auto& e : engine_stats) {
    busy += e.busy_rounds;
    idle += e.idle_rounds;
  }
  return busy + idle
             ? static_cast<double>(busy) / static_cast<double>(busy + idle)
             : 0.0;
}

double StreamTelemetry::fairness_index() const {
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& lane : lanes) {
    const auto s = static_cast<double>(lane.served_rounds);
    sum += s;
    sum_sq += s * s;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(lanes.size()) * sum_sq);
}

bool StreamTelemetry::write_csv(const std::string& path) const {
  std::size_t depth_bins = 0;
  for (const auto& lane : lanes) {
    depth_bins = std::max(depth_bins, lane.depth_hist.size());
  }

  std::vector<std::string> header = {
      "lane",         "distance",     "p",
      "engine",       "budget",       "overflow",
      "drained",      "logical_fail", "rounds",
      "drain_rounds", "popped",       "total_cycles",
      "cyc_p50",      "cyc_p95",      "cyc_p99",
      "cyc_max",      "depth_mean",   "depth_max"};
  for (std::size_t k = 0; k < depth_bins; ++k) {
    header.push_back("depth_" + std::to_string(k));
  }
  CsvWriter csv(path, header);
  if (!csv.ok()) return false;

  const std::string run_p = fmt_double(p);
  const std::string run_budget = fmt_double(cycles_per_round);
  const auto emit = [&](const LaneTelemetry& t, const std::string& label,
                        std::uint64_t overflow_count,
                        std::uint64_t drained_count,
                        std::uint64_t logical_count) {
    const ValueCounts& cyc = t.layer_cycles;
    csv << label << distance << run_p << engine << run_budget
        << overflow_count << drained_count << logical_count
        << t.rounds_streamed << t.drain_rounds << t.popped_layers
        << t.total_cycles << cyc.percentile(50) << cyc.percentile(95)
        << cyc.percentile(99) << cyc.max()
        << fmt_double(t.mean_depth(), "%.4f") << t.max_depth();
    for (std::size_t k = 0; k < depth_bins; ++k) {
      csv << (k < t.depth_hist.size() ? t.depth_hist[k] : std::uint64_t{0});
    }
    csv.end_row();
  };

  for (const auto& lane : lanes) {
    emit(lane, std::to_string(lane.lane), lane.overflow ? 1 : 0,
         lane.drained ? 1 : 0, lane.logical_failure ? 1 : 0);
  }
  emit(aggregate(), "all", static_cast<std::uint64_t>(overflow_lanes()),
       static_cast<std::uint64_t>(drained_lanes()),
       static_cast<std::uint64_t>(std::count_if(
           lanes.begin(), lanes.end(),
           [](const auto& l) { return l.logical_failure; })));
  return csv.flush();
}

bool StreamTelemetry::write_schedule_csv(const std::string& path) const {
  CsvWriter csv(path, {"kind", "id", "policy", "admission", "engines",
                       "lanes", "rounds_active", "rounds_inactive",
                       "paused_rounds", "pauses", "resumes", "cycles",
                       "utilization", "fairness"});
  if (!csv.ok()) return false;

  const std::string pool_engines = std::to_string(engines);
  const std::string pool_lanes = std::to_string(lanes.size());
  for (const auto& e : engine_stats) {
    csv.add_row({"engine", std::to_string(e.engine), policy, admission,
                 pool_engines, pool_lanes, std::to_string(e.busy_rounds),
                 std::to_string(e.idle_rounds), "", "", "",
                 std::to_string(e.cycles), fmt_double(e.utilization(), "%.4f"),
                 ""});
  }
  std::int64_t busy = 0, idle = 0;
  std::uint64_t cycles = 0;
  for (const auto& e : engine_stats) {
    busy += e.busy_rounds;
    idle += e.idle_rounds;
    cycles += e.cycles;
  }
  for (const auto& lane : lanes) {
    csv.add_row({"lane", std::to_string(lane.lane), policy, admission,
                 pool_engines, pool_lanes, std::to_string(lane.served_rounds),
                 std::to_string(lane.starved_rounds),
                 std::to_string(lane.paused_rounds),
                 std::to_string(lane.pauses), std::to_string(lane.resumes),
                 std::to_string(lane.total_cycles), "", ""});
  }
  const auto all = aggregate();
  csv.add_row({"pool", "all", policy, admission, pool_engines, pool_lanes,
               std::to_string(busy), std::to_string(idle),
               std::to_string(all.paused_rounds), std::to_string(all.pauses),
               std::to_string(all.resumes), std::to_string(cycles),
               fmt_double(pool_utilization(), "%.4f"),
               fmt_double(fairness_index(), "%.4f")});
  return csv.flush();
}

bool StreamTelemetry::write_latency_csv(const std::string& path) const {
  CsvWriter csv(path, {"lane", "distance", "p", "engine", "policy",
                       "admission", "engines", "budget", "pauses",
                       "paused_rounds", "samples", "soj_p50", "soj_p95",
                       "soj_p99", "soj_max", "soj_mean"});
  if (!csv.ok()) return false;

  const std::string run_p = fmt_double(p);
  const std::string run_budget = fmt_double(cycles_per_round);
  const auto emit = [&](const LaneTelemetry& t, const std::string& label) {
    const ValueCounts& soj = t.sojourn_rounds;
    csv << label << distance << run_p << engine << policy << admission
        << engines << run_budget << t.pauses << t.paused_rounds
        << soj.total() << soj.percentile(50) << soj.percentile(95)
        << soj.percentile(99) << soj.max() << fmt_double(soj.mean(), "%.4f");
    csv.end_row();
  };

  for (const auto& lane : lanes) emit(lane, std::to_string(lane.lane));
  emit(aggregate(), "all");
  return csv.flush();
}

bool StreamTelemetry::write_cache_csv(const std::string& path) const {
  CsvWriter csv(path, {"lane", "distance", "p", "engine", "cache", "hits",
                       "misses", "hit_rate", "installs", "evictions",
                       "zero_rounds", "zero_pushes", "bypasses"});
  if (!csv.ok()) return false;

  const auto emit = [&](const DecodeCacheStats& s, const std::string& label) {
    csv.add_row({label, std::to_string(distance), fmt_double(p), engine,
                 cache, std::to_string(s.hits), std::to_string(s.misses),
                 fmt_double(s.hit_rate(), "%.4f"), std::to_string(s.installs),
                 std::to_string(s.evictions), std::to_string(s.zero_rounds),
                 std::to_string(s.zero_pushes), std::to_string(s.bypasses)});
  };

  for (const auto& lane : lanes) emit(lane.cache, std::to_string(lane.lane));
  emit(aggregate().cache, "all");
  return csv.flush();
}

bool StreamTelemetry::write_timeline_csv(const std::string& path) const {
  CsvWriter csv(path, {"round", "phase", "live", "served", "starved",
                       "paused", "overflowed", "depth_sum", "depth_mean",
                       "depth_max", "cycles", "watts"});
  if (!csv.ok()) return false;
  const std::string watts_col = fmt_double(watts);
  for (const auto& s : timeline) {
    csv.add_row({std::to_string(s.round), s.drain ? "drain" : "stream",
                 std::to_string(s.live_lanes), std::to_string(s.served_lanes),
                 std::to_string(s.starved_lanes),
                 std::to_string(s.paused_lanes),
                 std::to_string(s.overflowed_lanes),
                 std::to_string(s.depth_sum),
                 fmt_double(s.depth_mean(), "%.4f"),
                 std::to_string(s.depth_max), std::to_string(s.cycles),
                 watts_col});
  }
  return csv.flush();
}

}  // namespace qec
