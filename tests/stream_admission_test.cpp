// Tests for power-aware pool admission control (src/stream/admission.*):
// spec parsing fails loudly, the power model caps the pool at the budget,
// pause()/resume() round-trip on OnlineStepper, admission=pause keeps
// a bursty lane alive that admission=overflow loses, admission=overflow
// stays byte-identical to the PR 3 goldens, and pause-mode outcomes are
// thread-count invariant.
#include "stream/admission.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

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

std::string csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

std::string schedule_csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_schedule_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

std::string timeline_csv_of(const StreamOutcome& outcome, const char* name) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(outcome.telemetry.write_timeline_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

TEST(Admission, SpecParsing) {
  const auto overflow = parse_admission_spec("overflow");
  EXPECT_FALSE(overflow.pause());

  const auto pause = parse_admission_spec("pause");
  EXPECT_TRUE(pause.pause());
  EXPECT_EQ(pause.high_water, 0);  // auto: reg_depth
  EXPECT_EQ(pause.low_water, -1);  // auto: reg_depth / 2

  const auto marked = parse_admission_spec("pause:high=6,low=2");
  EXPECT_TRUE(marked.pause());
  EXPECT_EQ(marked.high_water, 6);
  EXPECT_EQ(marked.low_water, 2);

  // Unknown modes, options the mode does not understand, malformed
  // option lists, and unorderable watermarks all throw.
  EXPECT_THROW(parse_admission_spec("shed"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("overflow:high=3"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:high"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:high=x"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:high=3,low=5"),
               std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:high=3,low=3"),
               std::invalid_argument);
  // Explicit non-positive marks are typos, not requests for the
  // automatic watermarks.
  EXPECT_THROW(parse_admission_spec("pause:high=0"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:high=-3"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:low=-2"), std::invalid_argument);
  // Values outside int neither wrap (4294967303 would read as high=7) nor
  // land on an "absent" sentinel (2147483648 would read as INT_MIN); an
  // explicit INT_MIN is a value like any other, so it fails the >= 1 check.
  const struct {
    const char* spec;
    const char* key;
  } out_of_range[] = {{"pause:high=4294967303", "high"},
                      {"pause:high=2147483648", "high"},
                      {"pause:low=-2147483649", "low"},
                      {"codel:target=99999999999999999999", "target"},
                      {"codel:interval=4294967297", "interval"},
                      {"pause:high=-2147483648", "high"}};
  for (const auto& c : out_of_range) {
    try {
      parse_admission_spec(c.spec);
      ADD_FAILURE() << c.spec << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << c.spec << ": " << e.what();
    }
  }
}

TEST(Admission, ResolveValidatesAgainstRegDepth) {
  const int reg_depth = 7;
  const auto resolved =
      resolve_admission(parse_admission_spec("pause"), reg_depth);
  EXPECT_EQ(resolved.high_water, reg_depth);
  EXPECT_EQ(resolved.low_water, reg_depth / 2);

  // A high-water mark beyond the queue capacity can never trigger before
  // the overflow it is supposed to prevent.
  EXPECT_THROW(
      resolve_admission(parse_admission_spec("pause:high=8"), reg_depth),
      std::invalid_argument);
  // Auto low (3) >= explicit high (2): unorderable after resolution.
  EXPECT_THROW(
      resolve_admission(parse_admission_spec("pause:high=2"), reg_depth),
      std::invalid_argument);
  EXPECT_NO_THROW(
      resolve_admission(parse_admission_spec("pause:high=2,low=0"), reg_depth));

  // The service surfaces the same errors through StreamConfig.
  StreamConfig config;
  config.lanes = 2;
  config.rounds = 4;
  config.cycles_per_round = 50;
  config.admission = "pause:high=9";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.admission = "shed";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
}

TEST(Admission, PowerModelMatchesDeploymentAndInverts) {
  const PoolPowerModel one{1, 5, 60e6};
  EXPECT_GT(one.watts_per_engine(), 0.0);
  EXPECT_DOUBLE_EQ(one.watts(), one.watts_per_engine());

  const PoolPowerModel four{4, 5, 60e6};
  EXPECT_DOUBLE_EQ(four.watts(), 4.0 * one.watts_per_engine());

  // Power is linear in the clock (ERSFQ dynamic dissipation).
  const PoolPowerModel fast{1, 5, 120e6};
  EXPECT_NEAR(fast.watts(), 2.0 * one.watts(), 1e-18);

  // max_engines inverts watts(): K engines fit, K + 1 do not.
  const double budget = 3.5 * one.watts_per_engine();
  const int fit = PoolPowerModel::max_engines(budget, 5, 60e6);
  EXPECT_EQ(fit, 3);
  EXPECT_TRUE((PoolPowerModel{fit, 5, 60e6}.fits(budget)));
  EXPECT_FALSE((PoolPowerModel{fit + 1, 5, 60e6}.fits(budget)));
  EXPECT_EQ(PoolPowerModel::max_engines(one.watts_per_engine() * 0.5, 5, 60e6),
            0);
}

TEST(Admission, BudgetWattsCapThePool) {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 8;
  config.seed = 7;
  config.cycles_per_round = 60;  // 60 MHz clock
  config.policy = "least_loaded";

  const double per_engine = PoolPowerModel{1, 5, 60e6}.watts_per_engine();

  // Budget for ~2.5 engines: the pool is shed from 6 to 2.
  config.budget_w = 2.5 * per_engine;
  const auto capped = run_stream(config);
  EXPECT_EQ(capped.telemetry.engines, 2);
  EXPECT_NEAR(capped.telemetry.watts, 2.0 * per_engine, 1e-15);
  EXPECT_DOUBLE_EQ(capped.telemetry.budget_w, config.budget_w);

  // An explicit K below the cap is left alone.
  config.engines = 1;
  EXPECT_EQ(run_stream(config).telemetry.engines, 1);
  config.engines = 0;

  // A budget far beyond any pool caps nothing: K stays as configured
  // (the quotient saturates instead of overflowing the integer cast).
  config.budget_w = 1e300;
  EXPECT_EQ(run_stream(config).telemetry.engines, config.lanes);
  config.engines = 4;
  EXPECT_EQ(run_stream(config).telemetry.engines, 4);
  config.engines = 0;

  // A budget that cannot power a single engine fails loudly.
  config.budget_w = 0.5 * per_engine;
  EXPECT_THROW(run_stream(config), std::invalid_argument);

  // A budget without a clock is undefined: watts scale with frequency.
  config.budget_w = 1.0;
  config.cycles_per_round = 0.0;
  EXPECT_THROW(run_stream(config), std::invalid_argument);
}

TEST(Admission, CheckpointResumeRoundTripIsANoOp) {
  const PlanarLattice lattice(5);
  OnlineConfig online;
  online.cycles_per_round = 30;

  // Two identical steppers fed the same stream; one pause/resume
  // round-trips mid-stream. All subsequent behaviour must be identical.
  OnlineStepper plain(lattice, online);
  OnlineStepper paused(lattice, online);
  BitVec layer(static_cast<std::size_t>(lattice.num_checks()), 0);
  layer[2] = layer[9] = 1;

  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(plain.push(layer));
    plain.spend(online.cycles_per_round);
    EXPECT_TRUE(paused.push(layer));
    paused.spend(online.cycles_per_round);
  }

  paused.pause();
  EXPECT_TRUE(paused.paused());
  EXPECT_EQ(paused.rounds_stepped(), plain.rounds_stepped());
  EXPECT_EQ(paused.engine().stored_layers(), plain.engine().stored_layers());
  EXPECT_EQ(paused.engine().correction(), plain.engine().correction());
  EXPECT_EQ(paused.engine().total_cycles(), plain.engine().total_cycles());
  paused.resume();
  EXPECT_FALSE(paused.paused());

  for (int round = 0; round < 40; ++round) {
    EXPECT_TRUE(plain.push_clean());
    plain.spend(online.cycles_per_round);
    EXPECT_TRUE(paused.push_clean());
    paused.spend(online.cycles_per_round);
    if (plain.drained() && paused.drained()) break;
  }
  const OnlineResult a = plain.result();
  const OnlineResult b = paused.result();
  EXPECT_EQ(a.correction, b.correction);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.layer_cycles, b.layer_cycles);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(plain.rounds_stepped(), paused.rounds_stepped());
}

TEST(Admission, CheckpointDrainResumeContinuesCorrectly) {
  const PlanarLattice lattice(5);
  OnlineConfig online;
  online.cycles_per_round = 0;  // unconstrained spend budget for the tail
  BitVec layer(static_cast<std::size_t>(lattice.num_checks()), 0);
  layer[0] = layer[5] = 1;

  // Reference: push + spend with no pause.
  OnlineStepper reference(lattice, online);
  // Paused twin: same pushes and the same total spends, but frozen (no
  // pushes) while the backlog drains between rounds 5 and 6.
  OnlineStepper frozen(lattice, online);

  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(reference.push(layer));
    reference.spend(10);
    EXPECT_TRUE(frozen.push(layer));
    frozen.spend(10);
  }
  frozen.pause();
  EXPECT_GT(frozen.engine().stored_layers(), 0);
  // While paused: pushes are a logic error, spends drain the backlog.
  EXPECT_THROW(frozen.push(layer), std::logic_error);
  EXPECT_THROW(frozen.pause(), std::logic_error);
  const std::uint64_t before = frozen.engine().total_cycles();
  for (int round = 0; round < 8; ++round) frozen.spend(10);
  EXPECT_GT(frozen.engine().total_cycles(), before)
      << "a paused lane must keep draining through spend()";
  reference.spend(80);  // same cycles, granted in one block
  frozen.resume();
  EXPECT_THROW(frozen.resume(), std::logic_error);

  for (int round = 0; round < 60; ++round) {
    EXPECT_TRUE(reference.push_clean());
    reference.spend(online.cycles_per_round);
    EXPECT_TRUE(frozen.push_clean());
    frozen.spend(online.cycles_per_round);
    if (reference.drained() && frozen.drained()) break;
  }
  EXPECT_TRUE(reference.drained());
  EXPECT_TRUE(frozen.drained());
  EXPECT_EQ(reference.result().correction, frozen.result().correction);
  EXPECT_EQ(reference.result().total_cycles, frozen.result().total_cycles);
  EXPECT_EQ(reference.rounds_stepped(), frozen.rounds_stepped());
}

/// One bursty lane among quiet ones (the PR 3 rescue scenario, turned up
/// until even the scheduler cannot help): with K = 1 engine under a fixed
/// rotation, admission=overflow loses the bursty lane to Reg overflow;
/// admission=pause freezes its clock at the high-water mark, drains it on
/// engines the rotation wastes, and finishes it late but alive.
SyndromeTrace bursty_trace(int lanes, int rounds, int bursty_lane) {
  const PlanarLattice lattice(5);
  TraceHeader header;
  header.distance = 5;
  header.lanes = static_cast<std::uint32_t>(lanes);
  header.rounds = static_cast<std::uint32_t>(rounds);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  SyndromeTrace trace(header);
  for (int round = 4; round < rounds - 6 && round < 24; ++round) {
    BitVec layer(static_cast<std::size_t>(lattice.num_checks()), 0);
    for (const int check : {0, 3, 9, 14, 16, 19}) {
      layer[static_cast<std::size_t>(check)] = 1;
    }
    trace.set_layer(bursty_lane, round, std::move(layer));
  }
  return trace;
}

TEST(Admission, PauseKeepsBurstyLaneAliveWhereOverflowLosesIt) {
  const int lanes = 4;
  const int bursty = 2;
  const auto trace = bursty_trace(lanes, 40, bursty);

  StreamConfig config;
  config.lanes = lanes;
  config.distance = 5;
  config.engines = 1;  // one engine for four lanes
  config.policy = "round_robin";
  config.cycles_per_round = 60;
  config.max_drain_rounds = 400;

  config.admission = "overflow";
  const auto overflow = run_stream(trace, config);
  ASSERT_TRUE(overflow.telemetry.lanes[bursty].overflow)
      << "the (K, clock) point must be one where overflow loses the lane";

  config.admission = "pause";
  const auto pause = run_stream(trace, config);
  for (const auto& lane : pause.telemetry.lanes) {
    EXPECT_FALSE(lane.overflow) << "lane " << lane.lane;
    EXPECT_TRUE(lane.drained) << "lane " << lane.lane;
    EXPECT_EQ(lane.rounds_streamed, trace.rounds()) << "lane " << lane.lane;
  }
  EXPECT_LT(pause.failed_lanes, overflow.failed_lanes);

  // The rescue is visible in the admission telemetry: the bursty lane was
  // paused at least once, re-admitted as many times as it was paused, and
  // the pauses show up in the timeline.
  const auto& rescued = pause.telemetry.lanes[bursty];
  EXPECT_GT(rescued.pauses, 0);
  EXPECT_EQ(rescued.pauses, rescued.resumes);
  EXPECT_GE(rescued.paused_rounds, rescued.pauses);
  EXPECT_EQ(pause.telemetry.ever_paused_lanes(), 1);
  int timeline_paused = 0;
  for (const auto& s : pause.telemetry.timeline) {
    timeline_paused += s.paused_lanes;
  }
  EXPECT_EQ(timeline_paused, rescued.paused_rounds);
}

TEST(Admission, LaggedLaneAtRoundBoundIsNotCountedDrained) {
  // A lane that spends the tail of the run paused can reach the
  // trace.rounds() + max_drain_rounds bound with an empty queue but an
  // unconsumed trace tail. It dropped syndrome layers, so it must count
  // as undrained/failed — never as a survivor scored against the
  // full-trace ground truth.
  const int lanes = 4;
  const int bursty = 2;
  const auto trace = bursty_trace(lanes, 40, bursty);

  StreamConfig config;
  config.lanes = lanes;
  config.distance = 5;
  config.engines = 1;
  config.policy = "round_robin";
  config.cycles_per_round = 60;
  config.admission = "pause";
  config.max_drain_rounds = 10;  // far too small for the paused lane's lag
  const auto outcome = run_stream(trace, config);

  const auto& lagged = outcome.telemetry.lanes[bursty];
  ASSERT_LT(lagged.rounds_streamed, trace.rounds())
      << "the scenario must actually leave the lane mid-trace at the bound";
  EXPECT_FALSE(lagged.drained);
  EXPECT_TRUE(lagged.failed());
  EXPECT_FALSE(lagged.logical_failure) << "unscored, not scored-and-wrong";

  // With a generous bound the same lane finishes the whole trace.
  config.max_drain_rounds = 400;
  const auto generous = run_stream(trace, config);
  const auto& finished = generous.telemetry.lanes[bursty];
  EXPECT_EQ(finished.rounds_streamed, trace.rounds());
  EXPECT_TRUE(finished.drained);
}

TEST(Admission, PauseNeverOverflowsAtAutoWatermarks) {
  // With the automatic high-water mark (reg_depth), a pause fires exactly
  // where the next push would overflow — so no lane can ever overflow,
  // for any policy or pool size.
  StreamConfig config;
  config.lanes = 5;
  config.distance = 7;
  config.p = 0.03;
  config.rounds = 20;
  config.seed = 11;
  config.cycles_per_round = 4;  // the PR 3 starved-clock golden scenario
  config.admission = "pause";
  const auto outcome = run_stream(config);
  EXPECT_EQ(outcome.overflow_lanes, 0);
  EXPECT_GT(outcome.telemetry.ever_paused_lanes(), 0);
}

// Telemetry CSV of the pre-refactor (PR 2) run_stream for lanes=4, d=5,
// p=0.02, rounds=10, seed=7, 60 cycles/round — the same golden capture
// stream_scheduler_test pins. admission=overflow must keep reproducing it
// byte for byte with the admission layer in place.
constexpr const char* kGoldenPr2Csv =
    "lane,distance,p,engine,budget,overflow,drained,logical_fail,rounds,"
    "drain_rounds,popped,total_cycles,cyc_p50,cyc_p95,cyc_p99,cyc_max,"
    "depth_mean,depth_max,depth_0,depth_1,depth_2,depth_3,depth_4,depth_5,"
    "depth_6,depth_7\n"
    "0,5,0.02,qecool,60,0,1,0,11,0,11,94,7,14,14,14,1.3636,3,4,2,2,3,0,0,0,0\n"
    "1,5,0.02,qecool,60,0,1,0,11,2,13,197,7,44,44,44,2.0769,3,1,3,3,6,0,0,0,0\n"
    "2,5,0.02,qecool,60,0,1,0,11,2,13,347,23,72,72,72,2.6923,4,1,1,1,8,2,0,0,0\n"
    "3,5,0.02,qecool,60,0,1,0,11,2,13,131,7,23,23,23,1.6923,3,3,2,4,4,0,0,0,0\n"
    "all,5,0.02,qecool,60,0,4,0,44,6,50,769,7,44,72,72,1.9800,4,9,8,10,21,2,"
    "0,0,0\n";

TEST(Admission, OverflowModeStaysByteIdenticalToPr3Goldens) {
  StreamConfig config;
  config.lanes = 4;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 10;
  config.seed = 7;
  config.cycles_per_round = 60;
  config.admission = "overflow";  // spelled out, parsed through the spec
  EXPECT_EQ(csv_of(run_stream(load_trace_fixture("golden.qtrc", config), config),
                   "adm_golden.csv"),
            kGoldenPr2Csv);
}

TEST(Admission, PauseOutcomesThreadCountInvariant) {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.engines = 2;
  config.policy = "least_loaded";
  config.cycles_per_round = 20;  // starved enough to trigger pauses
  config.admission = "pause";
  const auto trace = record_trace(config);

  config.threads = 1;
  const auto serial = run_stream(trace, config);
  config.threads = 4;
  const auto parallel = run_stream(trace, config);

  EXPECT_EQ(csv_of(serial, "adm_t1.csv"), csv_of(parallel, "adm_t4.csv"));
  EXPECT_EQ(schedule_csv_of(serial, "adm_s1.csv"),
            schedule_csv_of(parallel, "adm_s4.csv"));
  EXPECT_EQ(timeline_csv_of(serial, "adm_r1.csv"),
            timeline_csv_of(parallel, "adm_r4.csv"));
  for (std::size_t i = 0; i < serial.telemetry.lanes.size(); ++i) {
    EXPECT_EQ(serial.telemetry.lanes[i].pauses,
              parallel.telemetry.lanes[i].pauses);
    EXPECT_EQ(serial.telemetry.lanes[i].paused_rounds,
              parallel.telemetry.lanes[i].paused_rounds);
  }
}

TEST(Admission, PauseAccountingIsConsistent) {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.engines = 2;
  config.policy = "least_loaded";
  config.cycles_per_round = 20;
  config.admission = "pause";
  const auto outcome = run_stream(config);
  const auto& t = outcome.telemetry;

  // Engine-rounds cover exactly the recorded timeline; each served
  // lane-round maps to one busy engine-round; cycles balance.
  const auto scheduled = static_cast<std::int64_t>(t.timeline.size());
  std::int64_t busy = 0;
  std::uint64_t engine_cycles = 0;
  for (const auto& e : t.engine_stats) {
    EXPECT_EQ(e.busy_rounds + e.idle_rounds, scheduled);
    busy += e.busy_rounds;
    engine_cycles += e.cycles;
  }
  std::int64_t served = 0;
  std::uint64_t lane_cycles = 0;
  for (const auto& lane : t.lanes) {
    served += lane.served_rounds;
    lane_cycles += lane.total_cycles;
    // Every round a lane took part in is streamed, drained, or paused.
    EXPECT_LE(lane.served_rounds,
              lane.rounds_streamed + lane.drain_rounds + lane.paused_rounds);
    // The lane's clock pauses and resumes in strict alternation.
    EXPECT_GE(lane.pauses, lane.resumes);
    EXPECT_LE(lane.pauses, lane.resumes + 1);
  }
  EXPECT_EQ(busy, served);
  EXPECT_EQ(engine_cycles, lane_cycles);

  std::int64_t tl_live = 0, tl_paused = 0, tl_served = 0;
  std::uint64_t tl_cycles = 0;
  for (const auto& s : t.timeline) {
    EXPECT_LE(s.served_lanes, config.engines);
    EXPECT_LE(s.depth_max, 7);
    tl_live += s.live_lanes;
    tl_paused += s.paused_lanes;
    tl_served += s.served_lanes;
    tl_cycles += s.cycles;
  }
  std::int64_t lane_rounds = 0, lane_paused = 0;
  for (const auto& lane : t.lanes) {
    lane_rounds += lane.rounds_streamed + lane.drain_rounds;
    lane_paused += lane.paused_rounds;
  }
  EXPECT_EQ(tl_live, lane_rounds);
  EXPECT_EQ(tl_paused, lane_paused);
  EXPECT_EQ(tl_served, served);
  EXPECT_EQ(tl_cycles, engine_cycles);
}

}  // namespace
}  // namespace qec
