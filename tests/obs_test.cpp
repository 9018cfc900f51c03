// Tests for the observability subsystem (src/obs): the trace ring
// overwrites oldest with exact drop accounting, the log-bucketed
// histogram's quantiles never understate the exact nearest-rank
// percentile (and are exact below one octave of sub-buckets), the merged
// event order is the canonical (ts, control < lanes < engines, id, seq),
// a small bursty codel run reproduces a golden-pinned event prefix, the
// Chrome trace JSON and the windowed metrics CSV are byte-identical at
// any thread count, an undersized ring degrades to a flight recorder
// (dropped > 0, export still valid), and a 0-round stream neither traps
// nor poisons any telemetry CSV with NaNs (the zero-sample guards).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"
#include "trace_fixture.hpp"

namespace qec {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceRing, OverwritesOldestAndCountsDrops) {
  obs::TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.emit(i, obs::EventKind::kPush, static_cast<std::uint64_t>(100 + i),
              0);
  }
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  ASSERT_EQ(ring.size(), 4u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest survivor first: emissions 6..9 survive, in order.
    EXPECT_EQ(events[i].ts, static_cast<std::int64_t>(6 + i));
    EXPECT_EQ(events[i].seq, static_cast<std::uint32_t>(6 + i));
    EXPECT_EQ(events[i].payload, static_cast<std::uint64_t>(106 + i));
  }
}

TEST(TraceRing, ZeroCapacityDropsEverything) {
  obs::TraceRing ring(0);
  ring.emit(1, obs::EventKind::kPush, 0, 0);
  EXPECT_EQ(ring.emitted(), 1u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(Tracer, MergedOrderIsTsThenControlLanesEnginesThenSeq) {
  obs::Tracer tracer(/*lanes=*/2, /*engines=*/1, /*ring_capacity=*/16);
  tracer.engine(0).emit_at(5, obs::EventKind::kGrant, 1);
  tracer.lane(1).set_round(5);
  tracer.lane(1).emit(obs::EventKind::kPush, 3);
  tracer.lane(1).emit(obs::EventKind::kSpend, 40);
  tracer.lane(0).emit_at(5, obs::EventKind::kPush, 2);
  tracer.control().emit_at(5, obs::EventKind::kDispatch, 1);
  tracer.control().emit_at(3, obs::EventKind::kDispatch, 0);
  EXPECT_EQ(tracer.emitted(), 6u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const auto merged = tracer.merged();
  ASSERT_EQ(merged.size(), 6u);
  // ts=3 first, then at ts=5: control < lane 0 < lane 1 (seq order) < engine.
  EXPECT_EQ(merged[0].event.ts, 3);
  EXPECT_EQ(merged[0].track, obs::TrackKind::kControl);
  EXPECT_EQ(merged[1].track, obs::TrackKind::kControl);
  EXPECT_EQ(merged[2].track, obs::TrackKind::kLane);
  EXPECT_EQ(merged[2].id, 0);
  EXPECT_EQ(merged[3].track, obs::TrackKind::kLane);
  EXPECT_EQ(merged[3].id, 1);
  EXPECT_EQ(merged[3].event.kind,
            static_cast<std::uint16_t>(obs::EventKind::kPush));
  EXPECT_EQ(merged[4].id, 1);
  EXPECT_EQ(merged[4].event.kind,
            static_cast<std::uint16_t>(obs::EventKind::kSpend));
  EXPECT_EQ(merged[5].track, obs::TrackKind::kEngine);
}

// The canonical order as a plain stable sort of every ring's events: the
// reference the k-way merge in Tracer::merged() must reproduce.
std::vector<obs::MergedEvent> stable_sorted_events(const obs::Tracer& tracer) {
  std::vector<obs::MergedEvent> out;
  const auto append = [&out](const obs::Track& track) {
    for (const obs::TraceEvent& event : track.ring().events()) {
      out.push_back({track.kind(), track.id(), event});
    }
  };
  append(tracer.control());
  for (int i = 0; i < tracer.lanes(); ++i) append(tracer.lane(i));
  for (int e = 0; e < tracer.engines(); ++e) append(tracer.engine(e));
  std::stable_sort(out.begin(), out.end(),
                   [](const obs::MergedEvent& a, const obs::MergedEvent& b) {
                     if (a.event.ts != b.event.ts) return a.event.ts < b.event.ts;
                     if (a.track != b.track) return a.track < b.track;
                     if (a.id != b.id) return a.id < b.id;
                     return a.event.seq < b.event.seq;
                   });
  return out;
}

void expect_same_events(const std::vector<obs::MergedEvent>& got,
                        const std::vector<obs::MergedEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    ASSERT_TRUE(a.track == b.track && a.id == b.id &&
                a.event.ts == b.event.ts && a.event.seq == b.event.seq &&
                a.event.kind == b.event.kind &&
                a.event.payload == b.event.payload &&
                a.event.arg == b.event.arg)
        << "event " << i;
  }
}

TEST(Tracer, MergeOrdersTracksWrittenOutOfTsOrder) {
  // Writers emit in ts order, but the merge must not depend on it: tracks
  // emitted out of order (and wrapped by their rings) merge canonically.
  obs::Tracer tracer(/*lanes=*/3, /*engines=*/2, /*ring_capacity=*/6);
  const std::int64_t ts[] = {4, 2, 2, 7, 1, 4, 4, 0, 9, 3};
  for (std::size_t k = 0; k < std::size(ts); ++k) {
    tracer.lane(static_cast<int>(k % 3)).emit_at(ts[k], obs::EventKind::kPush, k);
    tracer.engine(static_cast<int>(k % 2))
        .emit_at(ts[std::size(ts) - 1 - k], obs::EventKind::kGrant, k);
    tracer.control().emit_at(ts[k], obs::EventKind::kDispatch, k);
  }
  EXPECT_GT(tracer.dropped(), 0u);
  expect_same_events(tracer.merged(), stable_sorted_events(tracer));

  // Timestamps spread far wider than the event count take the sort path.
  obs::Tracer sparse(/*lanes=*/2, /*engines=*/1, /*ring_capacity=*/8);
  sparse.lane(1).emit_at(std::int64_t{1} << 40, obs::EventKind::kPush, 1);
  sparse.lane(0).emit_at(-5, obs::EventKind::kPush, 2);
  sparse.engine(0).emit_at(std::int64_t{1} << 40, obs::EventKind::kGrant, 3);
  sparse.lane(0).emit_at(7, obs::EventKind::kSpend, 4);
  sparse.control().emit_at(7, obs::EventKind::kDispatch, 5);
  expect_same_events(sparse.merged(), stable_sorted_events(sparse));
  EXPECT_TRUE(obs::Tracer(1, 1, 4).merged().empty());
}

TEST(LogHistogram, ExactBelowOneOctaveOfSubBuckets) {
  // Values below kSub (= 8) land in unit-width buckets: quantiles exact.
  obs::LogHistogram hist;
  std::vector<std::uint64_t> samples = {0, 1, 1, 2, 3, 5, 7, 7};
  for (const auto v : samples) hist.observe(v);
  for (const double q : {1.0, 25.0, 50.0, 75.0, 95.0, 100.0}) {
    EXPECT_EQ(hist.quantile(q), percentile_nearest_rank(samples, q)) << q;
  }
}

TEST(LogHistogram, QuantileNeverUnderstatesExactNearestRank) {
  obs::LogHistogram hist;
  std::vector<std::uint64_t> samples;
  // Deterministic spread over ~4 decades, heavy tail included.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t v = (i * 2654435761ULL) % 50000;
    samples.push_back(v);
    hist.observe(v);
  }
  for (const double q : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const std::uint64_t exact = percentile_nearest_rank(samples, q);
    const std::uint64_t approx = hist.quantile(q);
    // Never below the exact percentile, never more than one sub-bucket
    // (<= 12.5% relative) above it.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact + exact / 8 + 1) << "q=" << q;
  }
  EXPECT_EQ(hist.quantile(100), hist.max());
  EXPECT_EQ(hist.count(), samples.size());
}

TEST(MetricsRegistry, WindowsCountersGaugesAndHistograms) {
  obs::MetricsRegistry reg(/*window=*/4);
  const int c = reg.add_counter("pushes");
  const int g = reg.add_gauge("live");
  const int h = reg.add_histogram("depth");
  for (std::int64_t round = 0; round < 10; ++round) {
    reg.count(c);
    reg.set_gauge(g, round);
    reg.observe(h, static_cast<std::uint64_t>(round + 1));
    reg.tick(round);
  }
  reg.finish();
  ASSERT_EQ(reg.windows(), 3);  // rounds 0-3, 4-7, 8-9 (partial flushed)

  const std::string path = temp_path("obs_metrics_windows.csv");
  ASSERT_TRUE(reg.write_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line,
            "window,round_first,round_last,rounds,partial,pushes,live,"
            "depth_count,depth_p50,depth_p95,depth_p99,depth_max");
  std::getline(lines, line);
  EXPECT_EQ(line, "0,0,3,4,0,4,3,4,2,4,4,4");
  std::getline(lines, line);
  EXPECT_EQ(line, "1,4,7,4,0,4,7,4,6,8,8,8");
  std::getline(lines, line);
  // Counters are per-window deltas and histograms reset per window: the
  // trailing 2-round window reports 2 of each, not cumulative totals —
  // and carries partial=1 because finish() flushed it before it filled.
  EXPECT_EQ(line, "2,8,9,2,1,2,9,2,9,10,10,10");
}

StreamConfig bursty_config() {
  // The small bursty scenario the golden pins: K < N under a tight clock
  // with codel admission, so pushes, starves, spends, pops, CoDel arms and
  // pauses all appear within a dozen rounds.
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.engines = 2;
  config.policy = "fq";
  config.admission = "codel";
  config.cycles_per_round = cycles_per_microsecond(20e6);
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.metrics_window = 8;
  return config;
}

std::string render_track(const obs::MergedEvent& event) {
  switch (event.track) {
    case obs::TrackKind::kControl:
      return "ctl";
    case obs::TrackKind::kLane:
      return "L" + std::to_string(event.id);
    case obs::TrackKind::kEngine:
      return "E" + std::to_string(event.id);
  }
  return "?";
}

std::string render_events(const std::vector<obs::MergedEvent>& events,
                          std::size_t limit) {
  std::ostringstream out;
  for (std::size_t i = 0; i < events.size() && i < limit; ++i) {
    const auto& e = events[i];
    out << e.event.ts << ' ' << render_track(e) << ' '
        << obs::event_name(static_cast<obs::EventKind>(e.event.kind)) << ' '
        << e.event.payload << ' ' << e.event.arg << '\n';
  }
  return out.str();
}

TEST(ObsIntegration, GoldenEventPrefixOfSmallBurstyRun) {
  const StreamConfig config = bursty_config();
  const auto outcome =
      run_stream(load_trace_fixture("bursty.qtrc", config), config);
  ASSERT_TRUE(outcome.tracer);
  const auto merged = outcome.tracer->merged();
  EXPECT_EQ(outcome.tracer->dropped(), 0u);
  EXPECT_EQ(outcome.tracer->emitted(), merged.size());
  EXPECT_EQ(outcome.tracer->emitted(), 579u);
  // The first three rounds, verbatim: round 0 lands the first layer on
  // every lane before any engine has work to grant; from round 1 on the
  // two fq engines serve two lanes per round while the other four starve
  // and build depth. Format: "ts track kind payload arg".
  EXPECT_EQ(render_events(merged, 29),
            "0 ctl dispatch 0 0\n"
            "0 L0 push 1 1\n"
            "0 L1 push 1 1\n"
            "0 L2 push 1 1\n"
            "0 L3 push 1 1\n"
            "0 L4 push 1 1\n"
            "0 L5 push 1 1\n"
            "1 ctl dispatch 2 0\n"
            "1 L0 push 2 1\n"
            "1 L0 serve 0 0\n"
            "1 L1 push 2 1\n"
            "1 L1 pop 7 0\n"
            "1 L1 serve 7 0\n"
            "1 L2 push 2 1\n"
            "1 L2 starve 2 0\n"
            "1 L3 push 2 1\n"
            "1 L3 starve 2 0\n"
            "1 L4 push 2 1\n"
            "1 L4 starve 2 0\n"
            "1 L5 push 2 1\n"
            "1 L5 starve 2 0\n"
            "1 E0 grant 0 0\n"
            "1 E1 grant 1 0\n"
            "2 ctl dispatch 2 0\n"
            "2 L0 push 3 1\n"
            "2 L0 starve 3 0\n"
            "2 L1 push 2 1\n"
            "2 L1 starve 2 0\n"
            "2 L2 push 3 1\n");
}

TEST(ObsIntegration, MergeEqualsStableSortOnMultiBlockFqCodelRun) {
  // 600 lanes run as three lane blocks under fq + codel, with a ring small
  // enough to wrap: the merged export equals the stable sort it replaced.
  StreamConfig config;
  config.lanes = 600;
  config.distance = 3;
  config.p = 0.04;
  config.rounds = 24;
  config.seed = 9;
  config.cycles_per_round = 10;
  config.max_drain_rounds = 200;
  config.engines = 120;
  config.policy = "fq";
  config.admission = "codel";
  config.obs.trace = true;
  config.obs.trace_ring = 32;
  config.threads = 4;
  const StreamOutcome outcome = run_stream(record_trace(config), config);
  ASSERT_TRUE(outcome.tracer);
  EXPECT_GT(outcome.tracer->dropped(), 0u);
  expect_same_events(outcome.tracer->merged(),
                     stable_sorted_events(*outcome.tracer));
}

TEST(ObsIntegration, TraceAndMetricsAreThreadCountInvariant) {
  // The PR 5 pinned acceptance scenario: byte-identical exports at 1 vs 4
  // worker threads (the determinism contract, DESIGN.md section 12).
  StreamConfig config;
  config.lanes = 16;
  config.distance = 5;
  config.p = 0.01;
  config.rounds = 96;
  config.seed = 2021;
  config.engines = 4;
  config.policy = "least_loaded";
  config.admission = "codel";
  config.cycles_per_round = cycles_per_microsecond(40e6);
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.metrics_window = 16;
  const SyndromeTrace trace = record_trace(config);

  std::string exports[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    config.threads = threads[i];
    const auto outcome = run_stream(trace, config);
    ASSERT_TRUE(outcome.tracer);
    ASSERT_TRUE(outcome.metrics);
    const std::string trace_path = temp_path("obs_invariant_trace.json");
    const std::string csv_path = temp_path("obs_invariant_metrics.csv");
    ASSERT_TRUE(obs::write_chrome_trace(*outcome.tracer, trace_path));
    ASSERT_TRUE(outcome.metrics->write_csv(csv_path));
    exports[i] = read_all(trace_path) + "\n--\n" + read_all(csv_path);
    std::remove(trace_path.c_str());
    std::remove(csv_path.c_str());
    EXPECT_GT(outcome.tracer->emitted(), 0u);
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(ObsIntegration, UndersizedRingDropsButExportStaysValid) {
  StreamConfig config = bursty_config();
  config.obs.trace_ring = 8;
  const auto outcome = run_stream(config);
  ASSERT_TRUE(outcome.tracer);
  EXPECT_GT(outcome.tracer->dropped(), 0u);
  // Survivors = emitted - dropped, and the export still serializes.
  EXPECT_EQ(outcome.tracer->merged().size(),
            outcome.tracer->emitted() - outcome.tracer->dropped());
  const std::string path = temp_path("obs_tiny_ring_trace.json");
  ASSERT_TRUE(obs::write_chrome_trace(*outcome.tracer, path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\""), std::string::npos);
}

TEST(ObsIntegration, ZeroRoundStreamKeepsTelemetryFinite) {
  // A trace with zero stored rounds: every lane drains instantly with no
  // samples anywhere. The zero-sample guards must keep every CSV finite —
  // no NaN/inf from empty means, percentiles, or fairness sums.
  PlanarLattice lattice(3);
  TraceHeader header;
  header.distance = 3;
  header.lanes = 3;
  header.rounds = 0;
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  const SyndromeTrace trace(header);

  StreamConfig config;
  config.lanes = 3;
  config.distance = 3;
  config.engines = 2;
  config.policy = "least_loaded";
  config.admission = "codel";
  config.obs.trace = true;
  config.obs.metrics = true;
  const auto outcome = run_stream(trace, config);
  EXPECT_EQ(outcome.lanes, 3);
  EXPECT_EQ(outcome.overflow_lanes, 0);
  EXPECT_EQ(outcome.failed_lanes, 0);
  EXPECT_EQ(outcome.telemetry.fairness_index(), 1.0);

  const struct {
    const char* name;
    bool (StreamTelemetry::*writer)(const std::string&) const;
  } writers[] = {
      {"obs_zero_lanes.csv", &StreamTelemetry::write_csv},
      {"obs_zero_sched.csv", &StreamTelemetry::write_schedule_csv},
      {"obs_zero_timeline.csv", &StreamTelemetry::write_timeline_csv},
      {"obs_zero_latency.csv", &StreamTelemetry::write_latency_csv},
  };
  for (const auto& w : writers) {
    const std::string path = temp_path(w.name);
    ASSERT_TRUE((outcome.telemetry.*w.writer)(path)) << w.name;
    const std::string text = read_all(path);
    std::remove(path.c_str());
    EXPECT_FALSE(text.empty()) << w.name;
    EXPECT_EQ(text.find("nan"), std::string::npos) << w.name;
    EXPECT_EQ(text.find("inf"), std::string::npos) << w.name;
  }
  // The obs side of a zero-round run is equally tame: a valid (if tiny)
  // trace and a metrics registry with at most one flushed window.
  ASSERT_TRUE(outcome.tracer);
  const std::string path = temp_path("obs_zero_trace.json");
  ASSERT_TRUE(obs::write_chrome_trace(*outcome.tracer, path));
  std::remove(path.c_str());
  ASSERT_TRUE(outcome.metrics);
  EXPECT_LE(outcome.metrics->windows(), 1);
}

}  // namespace
}  // namespace qec
