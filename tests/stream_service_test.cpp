// Tests for the streaming decode service: lane determinism (thread count
// never changes outcomes or the telemetry CSV), record/replay fidelity,
// telemetry accounting, and engine-spec and noise-parameter validation.
#include "stream/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "qecool/online_runner.hpp"
#include "surface_code/planar_lattice.hpp"

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

StreamConfig base_config() {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.cycles_per_round = 400;
  return config;
}

bool same_outcomes(const StreamTelemetry& a, const StreamTelemetry& b) {
  if (a.lanes.size() != b.lanes.size()) return false;
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const auto& la = a.lanes[i];
    const auto& lb = b.lanes[i];
    if (la.overflow != lb.overflow || la.drained != lb.drained ||
        la.logical_failure != lb.logical_failure ||
        la.rounds_streamed != lb.rounds_streamed ||
        la.drain_rounds != lb.drain_rounds ||
        la.popped_layers != lb.popped_layers ||
        la.total_cycles != lb.total_cycles ||
        la.depth_hist != lb.depth_hist ||
        la.layer_cycles != lb.layer_cycles) {
      return false;
    }
  }
  return true;
}

TEST(StreamService, ThreadCountNeverChangesOutcomeOrCsv) {
  StreamConfig config = base_config();
  const auto trace = record_trace(config);

  config.threads = 1;
  const auto serial = run_stream(trace, config);
  const std::string serial_csv = temp_path("stream_t1.csv");
  ASSERT_TRUE(serial.telemetry.write_csv(serial_csv));

  config.threads = 4;
  const auto parallel = run_stream(trace, config);
  const std::string parallel_csv = temp_path("stream_t4.csv");
  ASSERT_TRUE(parallel.telemetry.write_csv(parallel_csv));

  EXPECT_TRUE(same_outcomes(serial.telemetry, parallel.telemetry));
  EXPECT_EQ(read_all(serial_csv), read_all(parallel_csv))
      << "telemetry CSV must be byte-identical across thread counts";
  std::remove(serial_csv.c_str());
  std::remove(parallel_csv.c_str());

  // Recording is thread-count independent too.
  StreamConfig rec = base_config();
  rec.threads = 4;
  EXPECT_TRUE(trace == record_trace(rec));
}

TEST(StreamService, ReplayReproducesRecordedRunExactly) {
  const StreamConfig config = base_config();
  const auto trace = record_trace(config);
  const auto original = run_stream(trace, config);

  const std::string path = temp_path("replay.qtrc");
  trace.save(path);
  const auto reloaded = SyndromeTrace::load(path);
  const auto replayed = run_stream(reloaded, config);
  std::remove(path.c_str());

  ASSERT_EQ(original.lanes, replayed.lanes);
  EXPECT_EQ(original.overflow_lanes, replayed.overflow_lanes);
  EXPECT_EQ(original.drained_lanes, replayed.drained_lanes);
  EXPECT_EQ(original.logical_failures, replayed.logical_failures);
  EXPECT_TRUE(same_outcomes(original.telemetry, replayed.telemetry));
}

TEST(StreamService, UnconstrainedLanesAllDrain) {
  StreamConfig config = base_config();
  config.cycles_per_round = 0.0;
  const auto outcome = run_stream(config);
  EXPECT_EQ(outcome.overflow_lanes, 0);
  EXPECT_EQ(outcome.drained_lanes, outcome.lanes);
  for (const auto& lane : outcome.telemetry.lanes) {
    // Every stored layer the lane accepted was eventually popped.
    EXPECT_EQ(lane.popped_layers, lane.rounds_streamed + lane.drain_rounds);
  }
}

TEST(StreamService, StarvedClockOverflowsLanes) {
  StreamConfig config = base_config();
  config.distance = 9;
  config.p = 0.02;
  config.rounds = 24;
  config.cycles_per_round = 2;
  const auto outcome = run_stream(config);
  EXPECT_GT(outcome.overflow_lanes, 0)
      << "a 2-cycle budget cannot serve d=9 lanes";
  for (const auto& lane : outcome.telemetry.lanes) {
    if (lane.overflow) {
      EXPECT_FALSE(lane.drained);
      EXPECT_TRUE(lane.failed());
    }
  }
}

TEST(StreamService, MatchesSingleLaneRunOnline) {
  // One lane through the service == run_online on the same history: the
  // scheduler adds scheduling, never behaviour.
  StreamConfig config = base_config();
  config.lanes = 3;
  const auto trace = record_trace(config);
  const auto outcome = run_stream(trace, config);

  const PlanarLattice lattice(config.distance);
  OnlineConfig online;
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    const auto direct = run_online(lattice, trace.history(lane), online);
    const auto& t = outcome.telemetry.lanes[static_cast<std::size_t>(lane)];
    EXPECT_EQ(direct.overflow, t.overflow);
    EXPECT_EQ(direct.drained, t.drained);
    EXPECT_EQ(direct.total_cycles, t.total_cycles);
    // Per-pop order is pinned by online_runner_test; the service keeps
    // the counts of the same per-pop samples.
    EXPECT_EQ(static_cast<int>(direct.layer_cycles.size()), t.popped_layers);
    EXPECT_EQ(ValueCounts(direct.layer_cycles), t.layer_cycles);
  }
}

TEST(StreamService, TelemetryAccountingIsConsistent) {
  const StreamConfig config = base_config();
  const auto outcome = run_stream(config);
  const auto all = outcome.telemetry.aggregate();
  std::uint64_t depth_rounds = 0;
  for (const auto c : all.depth_hist) depth_rounds += c;
  std::uint64_t expected = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cycle_samples = 0, sojourn_samples = 0, cycle_max = 0;
  ValueCounts pooled;
  for (const auto& lane : outcome.telemetry.lanes) {
    // Every streamed or drain round records exactly one depth sample
    // (overflow rounds record one too, without counting as streamed).
    expected += static_cast<std::uint64_t>(lane.rounds_streamed) +
                static_cast<std::uint64_t>(lane.drain_rounds) +
                (lane.overflow ? 1 : 0);
    cycles += lane.total_cycles;
    // The cycle table holds exactly one sample per popped layer.
    EXPECT_EQ(lane.layer_cycles.total(),
              static_cast<std::uint64_t>(lane.popped_layers));
    // One sojourn sample per decoded trace layer, each at least the
    // arrival round; a drained lane decoded its whole trace.
    EXPECT_LE(lane.sojourn_rounds.total(),
              static_cast<std::uint64_t>(lane.rounds_streamed));
    if (lane.drained) {
      EXPECT_EQ(lane.sojourn_rounds.total(),
                static_cast<std::uint64_t>(lane.rounds_streamed));
    }
    if (!lane.sojourn_rounds.empty()) EXPECT_GE(lane.sojourn_rounds.min(), 1u);
    cycle_samples += lane.layer_cycles.total();
    sojourn_samples += lane.sojourn_rounds.total();
    cycle_max = std::max(cycle_max, lane.layer_cycles.max());
    pooled.merge(lane.layer_cycles);
  }
  EXPECT_EQ(depth_rounds, expected);
  EXPECT_EQ(all.total_cycles, cycles);
  // The aggregate tables are the per-lane tables summed.
  EXPECT_EQ(all.layer_cycles.total(), cycle_samples);
  EXPECT_EQ(all.layer_cycles.total(),
            static_cast<std::uint64_t>(all.popped_layers));
  EXPECT_EQ(all.sojourn_rounds.total(), sojourn_samples);
  EXPECT_EQ(all.layer_cycles, pooled);
  // Percentiles are order statistics of the pooled samples.
  const auto p50 = all.layer_cycles.percentile(50);
  const auto p99 = all.layer_cycles.percentile(99);
  EXPECT_LE(p50, p99);
  EXPECT_EQ(all.layer_cycles.percentile(100), cycle_max);
}

TEST(StreamService, RejectsNonOnlineEngineSpecs) {
  StreamConfig config = base_config();
  config.engine = "mwpm";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.engine = "qecool:bogus_knob=1";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.engine = "qecool:reg_depth=4";
  EXPECT_NO_THROW(run_stream(config));
}

TEST(StreamService, RecordRejectsBadNoiseParametersNamingTheField) {
  const auto message = [](StreamConfig config) -> std::string {
    try {
      record_trace(config);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const double bad :
       {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    StreamConfig config = base_config();
    config.p = bad;
    EXPECT_NE(message(config).find("p must be in [0, 1]"), std::string::npos)
        << bad;
  }
  StreamConfig config = base_config();
  config.rounds = -3;
  EXPECT_NE(message(config).find("rounds"), std::string::npos);
  // rounds = 0 keeps meaning `distance` noisy rounds (+1 perfect round).
  config.rounds = 0;
  EXPECT_EQ(record_trace(config).rounds(), config.distance + 1);
  config.p = 1.0;
  EXPECT_EQ(message(config), "no exception");
}

TEST(StreamService, RejectsNonFiniteCycleBudgetNamingTheField) {
  const StreamConfig valid = base_config();
  const SyndromeTrace trace = record_trace(valid);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    StreamConfig config = valid;
    config.cycles_per_round = bad;
    try {
      run_stream(trace, config);
      ADD_FAILURE() << "accepted cycles_per_round " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cycles_per_round"),
                std::string::npos)
          << e.what();
    }
  }
  // Unconstrained (<= 0) and finite budgets still run.
  StreamConfig config = valid;
  config.cycles_per_round = 0.0;
  EXPECT_NO_THROW(run_stream(trace, config));
}

TEST(StreamService, RegDepthSpecShapesDepthHistogram) {
  StreamConfig config = base_config();
  config.engine = "qecool:reg_depth=4";
  const auto outcome = run_stream(config);
  for (const auto& lane : outcome.telemetry.lanes) {
    EXPECT_EQ(lane.depth_hist.size(), 5u);  // depths 0..4
    EXPECT_LE(lane.max_depth(), 4);
  }
}

TEST(DecodeCacheStream, CleanStreamRidesTheZeroFastPathWithoutACache) {
  StreamConfig config;
  config.lanes = 8;
  config.distance = 5;
  config.p = 0.0;
  config.rounds = 16;
  config.seed = 11;
  config.cycles_per_round = 300;
  const auto outcome = run_stream(config);
  EXPECT_EQ(outcome.telemetry.cache, "off");
  const DecodeCacheStats stats = outcome.telemetry.aggregate().cache;
  EXPECT_GT(stats.zero_rounds, 0u);
  EXPECT_GT(stats.zero_pushes, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.installs, 0u);
  EXPECT_EQ(outcome.failed_lanes, 0);
}

}  // namespace
}  // namespace qec
