// Tests for the streaming decode service: lane determinism (thread count
// never changes outcomes or the telemetry CSV), record/replay fidelity,
// telemetry accounting, and engine-spec and noise-parameter validation.
#include "stream/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "qecool/online_runner.hpp"
#include "stream/admission.hpp"
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

// A lane's all-zero fast-path totals are its engine's at run end: on a
// dedicated stream they equal those of run_online's loop over the lane's
// history, at a clock where every lane drains and at one where 2 of the 6
// lanes overflow.
TEST(StreamService, LaneZeroFastPathCountsMatchRunOnline) {
  const PlanarLattice lattice(5);
  for (const auto& [cycles, overflowed] : {std::pair{400.0, 0}, {10.0, 2}}) {
    StreamConfig config = base_config();
    config.p = 0.005;
    config.rounds = 24;
    config.cycles_per_round = cycles;
    const auto trace = record_trace(config);
    const auto outcome = run_stream(trace, config);
    EXPECT_EQ(outcome.overflow_lanes, overflowed) << cycles;
    OnlineConfig online;
    online.cycles_per_round = cycles;
    online.max_drain_rounds = config.max_drain_rounds;
    std::uint64_t zero_rounds = 0, zero_pushes = 0;
    for (int lane = 0; lane < trace.lanes(); ++lane) {
      // run_online's loop, spelled out to read the engine's counters.
      const SyndromeHistory history = trace.history(lane);
      OnlineStepper stepper(lattice, online);
      for (const auto& layer : history.difference) {
        if (!stepper.push(layer)) break;
        stepper.spend(cycles);
      }
      for (int extra = 0; !stepper.overflowed() && !stepper.drained() &&
                          extra < online.max_drain_rounds;
           ++extra) {
        if (!stepper.push_clean()) break;
        stepper.spend(cycles);
      }
      const OnlineResult direct = run_online(lattice, history, online);
      ASSERT_EQ(stepper.result().total_cycles, direct.total_cycles);
      ASSERT_EQ(stepper.overflowed(), direct.overflow);
      const auto& t = outcome.telemetry.lanes[static_cast<std::size_t>(lane)];
      EXPECT_EQ(t.overflow, direct.overflow) << "lane " << lane;
      EXPECT_EQ(t.cache.zero_rounds, stepper.engine().zero_rounds())
          << "lane " << lane << " at " << cycles << " cycles";
      EXPECT_EQ(t.cache.zero_pushes, stepper.engine().zero_pushes())
          << "lane " << lane << " at " << cycles << " cycles";
      zero_rounds += t.cache.zero_rounds;
      zero_pushes += t.cache.zero_pushes;
    }
    EXPECT_GT(zero_rounds, 0u) << cycles;
    EXPECT_GT(zero_pushes, 0u) << cycles;
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
    if (!lane.sojourn_rounds.empty()) {
      EXPECT_GE(lane.sojourn_rounds.min(), 1u);
    }
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
  // A trace stores rounds + 1 rounds per lane; that count must fit an int.
  config.rounds = std::numeric_limits<int>::max();
  EXPECT_NE(message(config).find("rounds"), std::string::npos);
  config.rounds = std::numeric_limits<int>::max() - 1;
  EXPECT_NO_THROW(validate_record(config));
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
  // Unconstrained (0) and finite budgets still run.
  StreamConfig config = valid;
  config.cycles_per_round = 0.0;
  EXPECT_NO_THROW(run_stream(trace, config));
}

// resolve_stream is where every StreamConfig is checked: it and run_stream
// throw the same message, word for word, for each bad config.
TEST(StreamService, ResolveStreamAndRunStreamThrowTheSameMessages) {
  StreamConfig valid = base_config();
  valid.cycles_per_round = 60;  // a 60 MHz clock, so budgets have watts
  const SyndromeTrace trace = record_trace(valid);
  const double per_engine = PoolPowerModel{1, 5, 60e6}.watts_per_engine();
  const struct {
    const char* name;
    std::function<void(StreamConfig&)> edit;
    std::string message;
  } cases[] = {
      {"nan clock",
       [](StreamConfig& c) {
         c.cycles_per_round = std::numeric_limits<double>::quiet_NaN();
       },
       "stream: cycles_per_round must be finite"},
      {"nan budget",
       [](StreamConfig& c) {
         c.budget_w = std::numeric_limits<double>::quiet_NaN();
       },
       "stream: budget_w must be finite"},
      {"infinite budget",
       [](StreamConfig& c) {
         c.budget_w = std::numeric_limits<double>::infinity();
       },
       "stream: budget_w must be finite"},
      {"negative clock", [](StreamConfig& c) { c.cycles_per_round = -5; },
       "stream: cycles_per_round must be >= 0 (0 = unconstrained)"},
      {"negative pool size", [](StreamConfig& c) { c.engines = -2; },
       "stream: engines must be >= 0, got -2"},
      {"negative drain bound",
       [](StreamConfig& c) { c.max_drain_rounds = -5; },
       "stream: max_drain_rounds must be >= 0, got -5"},
      {"empty metrics window",
       [](StreamConfig& c) { c.obs.metrics_window = 0; },
       "stream: obs.metrics_window must be >= 1, got 0"},
      {"empty trace ring", [](StreamConfig& c) { c.obs.trace_ring = 0; },
       "stream: obs.trace_ring must be >= 1, got 0"},
      {"budget without a clock",
       [](StreamConfig& c) {
         c.cycles_per_round = 0.0;
         c.budget_w = 1.0;
       },
       "stream: budget_w needs a positive cycles_per_round — an "
       "unconstrained clock has no defined power"},
      {"budget below one engine",
       [per_engine](StreamConfig& c) { c.budget_w = 0.5 * per_engine; },
       "stream: power budget cannot supply even one engine at this distance "
       "and clock"},
      {"more engines than lanes",
       [](StreamConfig& c) {
         c.policy = "round_robin";
         c.engines = 7;
       },
       "stream: engines must be in [1, lanes], got 7"},
      {"dedicated with K != N", [](StreamConfig& c) { c.engines = 3; },
       "scheduler policy spec: 'dedicated' needs one engine per lane "
       "(engines == lanes); use round_robin, least_loaded, or fq for a "
       "shared pool"},
      {"unknown engine option",
       [](StreamConfig& c) { c.engine = "qecool:bogus=1"; },
       "decoder spec: online engine 'qecool' does not understand 'bogus' "
       "(engine options: reg_depth, thv, nlimit, deprioritize_boundary, "
       "start_at_max_hop)"},
      {"non-online engine", [](StreamConfig& c) { c.engine = "mwpm"; },
       "decoder spec: online engine spec must name 'qecool', got 'mwpm'"},
      {"unknown policy", [](StreamConfig& c) { c.policy = "fifo"; },
       "scheduler policy spec: unknown policy 'fifo'"},
      {"unknown policy option",
       [](StreamConfig& c) { c.policy = "least_loaded:knob=1"; },
       "scheduler policy spec: policy 'least_loaded' does not understand "
       "'knob'"},
      {"unknown admission", [](StreamConfig& c) { c.admission = "shed"; },
       "admission spec: unknown mode 'shed' (expected overflow, pause, or "
       "codel)"},
      {"admission mark above reg_depth",
       [](StreamConfig& c) { c.admission = "pause:high=9"; },
       "admission spec: high-water mark 9 exceeds reg_depth 7"},
      {"unknown slo option",
       [](StreamConfig& c) { c.obs.slo = "sojourn_p99<8,bogus=3"; },
       "bad slo spec: 'bogus=3' (unknown option 'bogus')"},
      {"unknown slo metric", [](StreamConfig& c) { c.obs.slo = "nope<1"; },
       "bad slo spec: unknown metric(s) 'nope' — known metrics: pushes, "
       "drain_pushes, pops, serves, starves, overflows, pauses, resumes, "
       "slo_ok, "
       "slo_warning, slo_page, live_lanes, paused_lanes, overflowed_lanes, "
       "depth_count, depth_p50, depth_p95, depth_p99, depth_max, "
       "sojourn_count, sojourn_p50, sojourn_p95, sojourn_p99, sojourn_max"},
  };
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const auto& c : cases) {
    StreamConfig config = valid;
    c.edit(config);
    EXPECT_EQ(message_of([&] { resolve_stream(config, trace.lanes(), 5); }),
              c.message)
        << c.name;
    EXPECT_EQ(message_of([&] { run_stream(trace, config); }), c.message)
        << c.name;
  }

  // A valid config resolves to the pool run_stream runs.
  StreamConfig config = valid;
  config.policy = "least_loaded";
  config.budget_w = 2.5 * per_engine;
  config.obs.slo = "sojourn_p99<8,window=16";
  const ResolvedStream resolved = resolve_stream(config, trace.lanes(), 5);
  EXPECT_EQ(resolved.engines, 2);
  EXPECT_DOUBLE_EQ(resolved.freq_hz, 60e6);
  EXPECT_TRUE(resolved.metrics);  // implied by the SLO
  EXPECT_EQ(resolved.metrics_window, 16);
  EXPECT_FALSE(resolved.trace);
  const StreamOutcome outcome = run_stream(trace, config);
  EXPECT_EQ(outcome.telemetry.engines, resolved.engines);
  EXPECT_DOUBLE_EQ(outcome.telemetry.watts, resolved.watts);
  EXPECT_EQ(outcome.metrics->window(), 16);
  config.obs.dump_dir = temp_path("resolve_dump");
  EXPECT_TRUE(resolve_stream(config, trace.lanes(), 5).trace);
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

TEST(StreamService, CleanStreamRidesTheZeroFastPath) {
  StreamConfig config;
  config.lanes = 8;
  config.distance = 5;
  config.p = 0.0;
  config.rounds = 16;
  config.seed = 11;
  config.cycles_per_round = 300;
  const auto outcome = run_stream(config);
  const auto all = outcome.telemetry.aggregate();
  EXPECT_GT(all.cache.zero_rounds, 0u);
  EXPECT_GT(all.cache.zero_pushes, 0u);
  EXPECT_EQ(outcome.failed_lanes, 0);
}

}  // namespace
}  // namespace qec
