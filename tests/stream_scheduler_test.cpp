// Tests for the shared decoder-engine pool: the dedicated K == N policy
// reproduces the pre-pool (PR 2) service byte for byte, scheduling
// outcomes are pure functions of (trace, config) for any thread count,
// a static pool's windows match a per-lane reference, a
// backpressure-aware policy saves a bursty lane a fixed rotation loses,
// and the scheduling telemetry accounts exactly.
#include "stream/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
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

bool same_outcomes(const StreamTelemetry& a, const StreamTelemetry& b) {
  if (a.lanes.size() != b.lanes.size()) return false;
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const auto& la = a.lanes[i];
    const auto& lb = b.lanes[i];
    if (la.overflow != lb.overflow || la.drained != lb.drained ||
        la.logical_failure != lb.logical_failure ||
        la.rounds_streamed != lb.rounds_streamed ||
        la.drain_rounds != lb.drain_rounds ||
        la.served_rounds != lb.served_rounds ||
        la.starved_rounds != lb.starved_rounds ||
        la.popped_layers != lb.popped_layers ||
        la.total_cycles != lb.total_cycles ||
        la.depth_hist != lb.depth_hist ||
        la.layer_cycles != lb.layer_cycles ||
        la.sojourn_rounds != lb.sojourn_rounds) {
      return false;
    }
  }
  return true;
}

// Telemetry CSV of the pre-refactor (PR 2) run_stream for lanes=4, d=5,
// p=0.02, rounds=10, seed=7, 60 cycles/round — captured from the
// one-engine-per-lane implementation before the pool existed. The
// dedicated K == N policy must reproduce it byte for byte, forever.
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

// Same capture for a starved clock (lanes=5, d=7, p=0.03, rounds=20,
// seed=11, 4 cycles/round): every lane overflows — the failure paths must
// stay byte-identical too.
constexpr const char* kGoldenPr2StarvedCsv =
    "lane,distance,p,engine,budget,overflow,drained,logical_fail,rounds,"
    "drain_rounds,popped,total_cycles,cyc_p50,cyc_p95,cyc_p99,cyc_max,"
    "depth_mean,depth_max,depth_0,depth_1,depth_2,depth_3,depth_4,depth_5,"
    "depth_6,depth_7\n"
    "0,7,0.03,qecool,4,1,0,0,7,0,0,32,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "1,7,0.03,qecool,4,1,0,0,7,0,0,38,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "2,7,0.03,qecool,4,1,0,0,8,0,1,41,9,9,9,9,4.0000,7,0,2,1,1,1,1,1,2\n"
    "3,7,0.03,qecool,4,1,0,0,7,0,0,24,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "4,7,0.03,qecool,4,1,0,0,7,0,0,34,0,0,0,0,4.3750,7,0,1,1,1,1,1,1,2\n"
    "all,7,0.03,qecool,4,5,0,0,36,0,1,169,9,9,9,9,4.2927,7,0,6,5,5,5,5,5,10\n";

StreamConfig golden_config() {
  StreamConfig config;
  config.lanes = 4;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 10;
  config.seed = 7;
  config.cycles_per_round = 60;
  return config;
}

TEST(StreamScheduler, DedicatedFullPoolMatchesPr2ByteForByte) {
  StreamConfig config = golden_config();
  const SyndromeTrace trace = load_trace_fixture("golden.qtrc", config);
  EXPECT_EQ(csv_of(run_stream(trace, config), "golden.csv"), kGoldenPr2Csv);

  // Explicit K == N spelled out behaves the same as the engines<=0 default.
  config.engines = config.lanes;
  config.policy = "dedicated";
  EXPECT_EQ(csv_of(run_stream(trace, config), "golden_explicit.csv"),
            kGoldenPr2Csv);

  StreamConfig starved;
  starved.lanes = 5;
  starved.distance = 7;
  starved.p = 0.03;
  starved.rounds = 20;
  starved.seed = 11;
  starved.cycles_per_round = 4;
  EXPECT_EQ(csv_of(run_stream(load_trace_fixture("starved.qtrc", starved),
                               starved),
                    "golden_starved.csv"),
            kGoldenPr2StarvedCsv);
}

TEST(StreamScheduler, RoundRobinFullPoolEqualsDedicated) {
  // With K == N the rotation covers every lane every round, so the fixed
  // rotation degenerates to the dedicated assignment.
  StreamConfig config = golden_config();
  config.policy = "round_robin";
  config.engines = config.lanes;
  EXPECT_EQ(csv_of(run_stream(load_trace_fixture("golden.qtrc", config), config),
                   "rr_full.csv"),
            kGoldenPr2Csv);
}

TEST(StreamScheduler, LeastLoadedOutcomesThreadCountInvariant) {
  StreamConfig config = golden_config();
  config.lanes = 6;
  config.engines = 2;
  config.policy = "least_loaded";
  const auto trace = record_trace(config);

  config.threads = 1;
  const auto serial = run_stream(trace, config);
  config.threads = 4;
  const auto parallel = run_stream(trace, config);

  EXPECT_TRUE(same_outcomes(serial.telemetry, parallel.telemetry));
  EXPECT_EQ(csv_of(serial, "ll_t1.csv"), csv_of(parallel, "ll_t4.csv"));
  EXPECT_EQ(schedule_csv_of(serial, "ll_s1.csv"),
            schedule_csv_of(parallel, "ll_s4.csv"));
  EXPECT_EQ(timeline_csv_of(serial, "ll_r1.csv"),
            timeline_csv_of(parallel, "ll_r4.csv"));
}

TEST(StreamScheduler, StaticGrantIsAssignInvertedForEveryRoundAndLane) {
  // engine_for() must give every (round, lane) exactly the engine assign()
  // gives it, over at least 2N rounds: the windowed service computes
  // grants per lane and never calls assign() for a static pool.
  struct Case {
    const char* spec;
    int lanes;
    int engines;
  };
  const Case cases[] = {{"dedicated", 5, 5},
                        {"round_robin", 7, 3},
                        {"round_robin:offset=3", 7, 3},
                        {"round_robin:offset=-5", 7, 3},
                        {"round_robin:offset=-5", 9, 4},
                        {"round_robin:offset=3", 6, 6}};
  for (const Case& c : cases) {
    const auto policy = make_scheduler_policy(c.spec);
    ASSERT_FALSE(policy->dynamic()) << c.spec;
    std::vector<int> assignment(static_cast<std::size_t>(c.engines));
    ScheduleView view;
    view.lanes = c.lanes;
    view.engines = c.engines;
    int grants = 0;
    for (std::int64_t round = 0; round < 3 * c.lanes; ++round) {
      view.round = round;
      std::fill(assignment.begin(), assignment.end(), -1);
      policy->assign(view, assignment);
      std::vector<int> want(static_cast<std::size_t>(c.lanes), -1);
      for (int e = 0; e < c.engines; ++e) {
        want[static_cast<std::size_t>(assignment[static_cast<std::size_t>(e)])] = e;
      }
      for (int lane = 0; lane < c.lanes; ++lane) {
        const int got = policy->engine_for(round, lane, c.lanes, c.engines);
        EXPECT_EQ(got, want[static_cast<std::size_t>(lane)])
            << c.spec << " N=" << c.lanes << " K=" << c.engines
            << " round " << round << " lane " << lane;
        grants += got >= 0 ? 1 : 0;
      }
    }
    EXPECT_EQ(grants, 3 * c.lanes * c.engines) << c.spec;
  }
  // Dynamic policies have no per-lane grant.
  EXPECT_THROW(make_scheduler_policy("least_loaded")->engine_for(0, 0, 2, 1),
               std::logic_error);
  EXPECT_THROW(make_scheduler_policy("fq")->engine_for(0, 0, 2, 1),
               std::logic_error);
}

/// Dispatches a static run takes: windows of kStaticWindow rounds over
/// the trace, then over the drain, up to the window holding the last round
/// in which any lane took part (the run stops after it).
std::uint64_t expected_windows(const StreamOutcome& outcome, int trace_rounds) {
  const std::int64_t last = outcome.telemetry.timeline.back().round;
  if (last < trace_rounds) {
    return static_cast<std::uint64_t>(last / kStaticWindow + 1);
  }
  return static_cast<std::uint64_t>(
      (trace_rounds + kStaticWindow - 1) / kStaticWindow +
      (last - trace_rounds) / kStaticWindow + 1);
}

std::uint64_t dispatches(const StreamOutcome& outcome) {
  return outcome.profiler
      ->totals()[static_cast<std::size_t>(obs::Stage::kDispatchAssign)]
      .calls;
}

/// What the service must report for one lane, computed without it: the
/// lane's own stepper, driven round by round with the grants assign()
/// hands out (a live lane pushes its next layer, a clean one after the
/// trace, then spends a grant if it has one, or starves with backlog).
struct ReferenceLane {
  bool overflow = false;
  bool drained = false;
  int streamed = 0;
  int drain = 0;
  int served = 0;
  int starved = 0;
  std::uint64_t cycles = 0;
};

std::vector<ReferenceLane> reference_lanes(const SyndromeTrace& trace,
                                           const StreamConfig& config,
                                           int engines) {
  const int n = trace.lanes();
  const int rounds = trace.rounds() + config.max_drain_rounds;
  const auto policy = make_scheduler_policy(config.policy);
  std::vector<std::vector<int>> grant(static_cast<std::size_t>(rounds));
  std::vector<int> assignment(static_cast<std::size_t>(engines));
  ScheduleView view;
  view.lanes = n;
  view.engines = engines;
  for (int t = 0; t < rounds; ++t) {
    view.round = t;
    policy->assign(view, assignment);
    auto& row = grant[static_cast<std::size_t>(t)];
    row.assign(static_cast<std::size_t>(n), -1);
    for (int e = 0; e < engines; ++e) {
      row[static_cast<std::size_t>(assignment[static_cast<std::size_t>(e)])] = e;
    }
  }
  OnlineConfig online;
  online.engine = online_engine_config(config.engine);
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;
  const PlanarLattice lattice(static_cast<int>(trace.header().distance));
  std::vector<ReferenceLane> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ReferenceLane& ref = out[static_cast<std::size_t>(i)];
    OnlineStepper stepper(lattice, online);
    for (int t = 0; t < rounds; ++t) {
      if (ref.streamed >= trace.rounds() && stepper.drained()) break;
      const bool backlog = stepper.engine().stored_layers() > 0;
      const bool real = ref.streamed < trace.rounds();
      if (!(real ? stepper.push(trace.layer(i, ref.streamed))
                 : stepper.push_clean())) {
        ref.overflow = true;
        break;
      }
      ++(real ? ref.streamed : ref.drain);
      if (grant[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] >= 0) {
        stepper.spend(config.cycles_per_round);
        ++ref.served;
      } else if (backlog) {
        ++ref.starved;
      }
    }
    ref.drained = !ref.overflow && ref.streamed >= trace.rounds() &&
                  stepper.engine().all_clear();
    ref.cycles = stepper.engine().total_cycles();
  }
  return out;
}

TEST(StreamScheduler, StaticWindowsMatchAPerLaneReference) {
  // 200 noisy rounds store 201: three full windows and a partial one,
  // then a drain that ends mid-window. Static pools run in windows with
  // grants computed per lane; each lane must end exactly as its own
  // stepper does when driven round by round with assign()'s grants, at
  // threads 1 and 4, in exactly the windows the run needs.
  StreamConfig config;
  config.lanes = 8;
  config.distance = 5;
  config.p = 0.01;
  config.rounds = 200;
  config.seed = 7;
  config.cycles_per_round = 60;
  config.max_drain_rounds = 400;
  const SyndromeTrace trace = record_trace(config);
  ASSERT_GT(trace.rounds(), 3 * kStaticWindow);

  for (const auto& [policy, engines] :
       {std::pair<const char*, int>{"dedicated", 8},
        std::pair<const char*, int>{"round_robin:offset=-5", 5}}) {
    SCOPED_TRACE(policy);
    StreamConfig c = config;
    c.policy = policy;
    c.engines = engines;
    c.obs.profile = true;
    c.threads = 1;
    const StreamOutcome serial = run_stream(trace, c);
    c.threads = 4;
    const StreamOutcome parallel = run_stream(trace, c);

    const std::vector<ReferenceLane> want = reference_lanes(trace, c, engines);
    int drained = 0, starved = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const LaneTelemetry& got = serial.telemetry.lanes[i];
      EXPECT_EQ(got.overflow, want[i].overflow) << "lane " << i;
      EXPECT_EQ(got.drained, want[i].drained) << "lane " << i;
      EXPECT_EQ(got.rounds_streamed, want[i].streamed) << "lane " << i;
      EXPECT_EQ(got.drain_rounds, want[i].drain) << "lane " << i;
      EXPECT_EQ(got.served_rounds, want[i].served) << "lane " << i;
      EXPECT_EQ(got.starved_rounds, want[i].starved) << "lane " << i;
      EXPECT_EQ(got.total_cycles, want[i].cycles) << "lane " << i;
      drained += got.drained ? 1 : 0;
      starved += got.starved_rounds;
    }
    EXPECT_TRUE(same_outcomes(serial.telemetry, parallel.telemetry));
    EXPECT_EQ(schedule_csv_of(serial, "sw_s1.csv"),
              schedule_csv_of(parallel, "sw_s4.csv"));
    EXPECT_EQ(timeline_csv_of(serial, "sw_r1.csv"),
              timeline_csv_of(parallel, "sw_r4.csv"));

    // Not vacuous: lanes drain, the shared pool starves backlogged lanes,
    // and the last lane finishes inside a drain window, not on its edge.
    EXPECT_GT(drained, 0);
    if (engines < config.lanes) {
      EXPECT_GT(starved, 0);
    }
    const std::int64_t last = serial.telemetry.timeline.back().round;
    EXPECT_GT(last, trace.rounds());
    EXPECT_NE((last + 1 - trace.rounds()) % kStaticWindow, 0);
    EXPECT_EQ(dispatches(serial), expected_windows(serial, trace.rounds()));
    EXPECT_EQ(dispatches(parallel), dispatches(serial));
    EXPECT_GE(dispatches(serial), 5u);
    // Engine stats cover exactly the timeline rounds, so a window's tail
    // after the last lane finished is accounted nowhere.
    for (const auto& e : serial.telemetry.engine_stats) {
      EXPECT_EQ(e.busy_rounds + e.idle_rounds,
                static_cast<std::int64_t>(serial.telemetry.timeline.size()));
    }
  }

  // With K == N least_loaded serves every live lane each round, like
  // dedicated, but through the one-round path: one dispatch per round.
  // Lane telemetry and the timeline must match the windowed run's.
  StreamConfig one_round = config;
  one_round.policy = "least_loaded";
  one_round.engines = config.lanes;
  one_round.obs.profile = true;
  const StreamOutcome per_round = run_stream(trace, one_round);
  const StreamOutcome windowed = run_stream(trace, config);
  EXPECT_EQ(dispatches(per_round), per_round.telemetry.timeline.size());
  EXPECT_EQ(csv_of(per_round, "ll_w.csv"), csv_of(windowed, "dd_w.csv"));
  EXPECT_EQ(timeline_csv_of(per_round, "ll_wr.csv"),
            timeline_csv_of(windowed, "dd_wr.csv"));
}

/// One bursty lane among quiet ones, served by a single shared engine: the
/// fixed rotation visits the bursty lane once every N rounds regardless of
/// backlog and loses it to Reg overflow; the backpressure-aware policy
/// follows queue depth and keeps every lane alive.
SyndromeTrace bursty_trace(int lanes, int rounds, int bursty_lane) {
  const PlanarLattice lattice(5);
  TraceHeader header;
  header.distance = 5;
  header.lanes = static_cast<std::uint32_t>(lanes);
  header.rounds = static_cast<std::uint32_t>(rounds);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  SyndromeTrace trace(header);
  // Burst: defect pairs toggling in the bursty lane's mid-run rounds
  // (difference bits set, so every burst layer carries matching work; an
  // even number of identical layers keeps the stream consistent with the
  // all-zero ground-truth final error).
  for (int round = 4; round < rounds - 6 && round < 24; ++round) {
    BitVec layer(static_cast<std::size_t>(lattice.num_checks()), 0);
    for (const int check : {0, 3, 9, 14, 16, 19}) {
      layer[static_cast<std::size_t>(check)] = 1;
    }
    trace.set_layer(bursty_lane, round, std::move(layer));
  }
  return trace;
}

TEST(StreamScheduler, LeastLoadedSavesBurstyLaneRoundRobinLoses) {
  const int lanes = 4;
  const int bursty = 2;
  const auto trace = bursty_trace(lanes, 40, bursty);

  StreamConfig config;
  config.lanes = lanes;
  config.distance = 5;
  config.engines = 1;  // one engine for four lanes
  config.cycles_per_round = 60;
  config.max_drain_rounds = 400;

  config.policy = "round_robin";
  const auto rr = run_stream(trace, config);
  EXPECT_TRUE(rr.telemetry.lanes[bursty].overflow)
      << "a fixed rotation must lose the bursty lane at K = 1";

  config.policy = "least_loaded";
  const auto ll = run_stream(trace, config);
  for (const auto& lane : ll.telemetry.lanes) {
    EXPECT_FALSE(lane.overflow) << "lane " << lane.lane;
    EXPECT_TRUE(lane.drained) << "lane " << lane.lane;
  }
  // The rescue is visible in the scheduling telemetry: the bursty lane
  // drew more service than its fair 1/N share.
  const auto& served = ll.telemetry.lanes[bursty].served_rounds;
  for (const auto& lane : ll.telemetry.lanes) {
    if (lane.lane != bursty) {
      EXPECT_GE(served, lane.served_rounds);
    }
  }
}

TEST(StreamScheduler, PolicyAndPoolSpecsFailLoudly) {
  StreamConfig config = golden_config();
  config.policy = "fifo";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "least_loaded:bogus_knob=1";
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "dedicated";
  config.engines = config.lanes - 1;  // dedicated demands K == N
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.policy = "round_robin";
  config.engines = config.lanes + 1;  // more engines than lanes
  EXPECT_THROW(run_stream(config), std::invalid_argument);
  config.engines = 2;
  config.policy = "round_robin:offset=3";  // options parse like decoders
  EXPECT_NO_THROW(run_stream(config));

  EXPECT_THROW(make_scheduler_policy("round_robin:offset=x"),
               std::invalid_argument);
  const auto names = registered_scheduler_policies();
  EXPECT_NE(std::find(names.begin(), names.end(), "dedicated"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "round_robin"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "least_loaded"),
            names.end());
}

TEST(StreamScheduler, ScheduleAccountingIsConsistent) {
  StreamConfig config = golden_config();
  config.lanes = 6;
  config.engines = 2;
  config.policy = "least_loaded";
  config.cycles_per_round = 200;  // ample: no lane overflows
  const auto outcome = run_stream(config);
  ASSERT_EQ(outcome.overflow_lanes, 0);
  const auto& t = outcome.telemetry;
  ASSERT_EQ(t.engine_stats.size(), 2u);

  // Every engine is accounted for in every scheduled round, and with no
  // overflow every scheduled round has live lanes, so the timeline holds
  // exactly the scheduled rounds.
  const auto scheduled = static_cast<std::int64_t>(t.timeline.size());
  std::int64_t busy = 0;
  std::uint64_t engine_cycles = 0;
  for (const auto& e : t.engine_stats) {
    EXPECT_EQ(e.busy_rounds + e.idle_rounds, scheduled);
    busy += e.busy_rounds;
    engine_cycles += e.cycles;
  }

  // Grants: each served lane-round maps to exactly one busy engine-round.
  std::int64_t served = 0, starved = 0;
  std::uint64_t lane_cycles = 0;
  for (const auto& lane : t.lanes) {
    served += lane.served_rounds;
    starved += lane.starved_rounds;
    lane_cycles += lane.total_cycles;
    // A lane is served at most once per round it took part in.
    EXPECT_LE(lane.served_rounds,
              lane.rounds_streamed + lane.drain_rounds);
  }
  EXPECT_EQ(busy, served);
  EXPECT_EQ(engine_cycles, lane_cycles)
      << "every consumed cycle flows through exactly one pool engine";

  // The timeline tells the same story round by round.
  std::int64_t tl_served = 0, tl_starved = 0, tl_live = 0;
  std::uint64_t tl_cycles = 0;
  for (const auto& s : t.timeline) {
    EXPECT_LE(s.served_lanes, config.engines);
    EXPECT_LE(s.depth_max, 7) << "depth cannot exceed reg_depth";
    tl_served += s.served_lanes;
    tl_starved += s.starved_lanes;
    tl_live += s.live_lanes;
    tl_cycles += s.cycles;
  }
  EXPECT_EQ(tl_served, served);
  EXPECT_EQ(tl_starved, starved);
  EXPECT_EQ(tl_cycles, engine_cycles);
  std::int64_t lane_rounds = 0;
  for (const auto& lane : t.lanes) {
    lane_rounds += lane.rounds_streamed + lane.drain_rounds;
  }
  EXPECT_EQ(tl_live, lane_rounds);

  const double fairness = t.fairness_index();
  EXPECT_GT(fairness, 1.0 / static_cast<double>(config.lanes) - 1e-12);
  EXPECT_LE(fairness, 1.0 + 1e-12);
}

// ---- export pins --------------------------------------------------------
//
// One matrix pins every export of the service: policy x admission on two
// scenarios — the bursty K < N fleet above, and a lone lane that
// overflows mid-trace (a round where every live lane overflows). Each cell
// runs at threads 1 and 4; both must hash to the same pinned FNV-1a
// digests, one per export.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename Write>
std::string export_digest(const char* name, Write&& write) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(write(path)) << name;
  const std::string bytes = read_all(path);
  std::remove(path.c_str());
  char hex[20];
  std::snprintf(hex, sizeof hex, " %016llx",
                static_cast<unsigned long long>(fnv1a(bytes)));
  return hex;
}

/// The nine export digests of one run, in a fixed order: telemetry,
/// schedule, timeline, latency and cache CSVs, metrics CSV, SLO CSV,
/// Prometheus snapshot, Chrome trace JSON.
std::string export_digests(const StreamOutcome& o) {
  const StreamTelemetry& t = o.telemetry;
  std::string out;
  out += export_digest("pin_t.csv", [&](auto& p) { return t.write_csv(p); });
  out += export_digest("pin_s.csv",
                       [&](auto& p) { return t.write_schedule_csv(p); });
  out += export_digest("pin_r.csv",
                       [&](auto& p) { return t.write_timeline_csv(p); });
  out += export_digest("pin_l.csv",
                       [&](auto& p) { return t.write_latency_csv(p); });
  out += export_digest("pin_c.csv",
                       [&](auto& p) { return t.write_cache_csv(p); });
  out += export_digest("pin_m.csv",
                       [&](auto& p) { return o.metrics->write_csv(p); });
  out += export_digest("pin_slo.csv",
                       [&](auto& p) { return o.slo->write_csv(p); });
  out += export_digest("pin_prom.txt", [&](auto& p) {
    return obs::write_prom_snapshot(*o.metrics, o.slo.get(), p);
  });
  out += export_digest("pin_trace.json", [&](auto& p) {
    return obs::write_chrome_trace(*o.tracer, p);
  });
  return out;
}

/// One line per (scenario, policy, admission) cell.
std::string export_matrix(int threads) {
  StreamConfig bursty;
  bursty.lanes = 4;
  bursty.distance = 5;
  bursty.cycles_per_round = 60;
  bursty.max_drain_rounds = 400;
  StreamConfig lone;
  lone.lanes = 1;
  lone.distance = 7;
  lone.p = 0.03;
  lone.rounds = 20;
  lone.seed = 11;
  lone.cycles_per_round = 4;
  const struct {
    const char* name;
    StreamConfig config;
    SyndromeTrace trace;
  } scenarios[] = {{"bursty", bursty, bursty_trace(4, 40, 2)},
                   {"lone", lone, load_trace_fixture("lone.qtrc", lone)}};

  std::string text;
  for (const auto& scenario : scenarios) {
    for (const char* policy :
         {"dedicated", "round_robin", "least_loaded", "fq"}) {
      for (const char* admission : {"overflow", "pause", "codel"}) {
        StreamConfig config = scenario.config;
        config.policy = policy;
        config.engines = std::string(policy) == "dedicated" ? config.lanes : 1;
        config.admission = admission;
        config.threads = threads;
        config.obs.trace = true;
        config.obs.metrics = true;
        config.obs.metrics_window = 8;
        config.obs.slo = "sojourn_p99<4";
        text += std::string(scenario.name) + " " + policy + " " + admission +
                export_digests(run_stream(scenario.trace, config)) + "\n";
      }
    }
  }
  return text;
}

constexpr const char* kPinnedExportDigests =
    "bursty dedicated overflow 4e5b0f149115843c"
    " 6d0f7fc1a753332c 3c6ab17169a37c74 6ca5048791d9f20c 5abce3b2d48b32b5"
    " fe7aca6ec68a4fae 43a6a39539b507a7 2a76a49ce2bc6f78 346c977bbf7cbf1c\n"
    "bursty dedicated pause 4e5b0f149115843c"
    " 437eda8fa56b3676 3c6ab17169a37c74 a7a9e6e1557d7c9c 5abce3b2d48b32b5"
    " fe7aca6ec68a4fae 43a6a39539b507a7 2a76a49ce2bc6f78 346c977bbf7cbf1c\n"
    "bursty dedicated codel 4e5b0f149115843c"
    " e3c51e0f68032153 3c6ab17169a37c74 7d8a75544af6460b 5abce3b2d48b32b5"
    " fe7aca6ec68a4fae 43a6a39539b507a7 2a76a49ce2bc6f78 6790c2ccef604785\n"
    "bursty round_robin overflow d586fbeaed671bf0"
    " dc67a59c66e09cee 32fb4f19597864a0 eb6a163f4bdfe92e 065f9d361eeea1a2"
    " 6133fc3adb4b62fd b22719a187678b75 bb0050c5cd0c3504 66d6cca3f0f9bc49\n"
    "bursty round_robin pause 78cd8b074aeca0ac"
    " 321ce0c9eedf29dc b6462f48bb0a7818 47bd9d5c82918fe0 8649884c91339804"
    " fe180be229b3ebf5 e2b18201a4f84c75 16c89401d8a5c9e6 57cee8873cfcbe43\n"
    "bursty round_robin codel 5dc93bcdd5aab649"
    " 500a1640cfc42548 7efca358f084e7cf 61bda9f9151bbe5c 8649884c91339804"
    " 4cb2220da6f64ee8 e83ac2cff9074891 443fbd3c7315527a f3782659d606d7d9\n"
    "bursty least_loaded overflow d8fc69aeed94bcd5"
    " 19833e6f64b282dd 1110d8b2c34dbf58 a5a3b3568798e174 31eb9a8ef5e5a844"
    " 7e20847e6e8526a1 53022b89fdf53683 1668fdab3c2a904d 3d4d18f364f3c5c9\n"
    "bursty least_loaded pause d8fc69aeed94bcd5"
    " 8455f4eabab0a74f 1110d8b2c34dbf58 168d83d4bec9fe22 31eb9a8ef5e5a844"
    " 7e20847e6e8526a1 53022b89fdf53683 1668fdab3c2a904d 3d4d18f364f3c5c9\n"
    "bursty least_loaded codel 18e27d2b11cfe8f2"
    " 760e8ab01815111c ccebdadb46181541 80742d8c24a6e2d7 b40fbc6c0fe2ca38"
    " b27c8cd380e9a06d 2c498b3d35a54417 aa1a83df92ee77d6 8fb3ad7f16b0e26e\n"
    "bursty fq overflow b3a579335c841367"
    " 45a4a092b303174e a409fc9f95150520 45ca9c4531658e4d 401d0f031938ecda"
    " 0954a091fa75398b 883ced938599b4de d80d1397ada33870 efcaae2b1cf6544f\n"
    "bursty fq pause 508f173005885b5e"
    " dc43d244b0904200 845ce21265f1b2bc 968732c8be5ad2f4 387acda07df54f99"
    " 08db8a8afc12707d 50fda57a3239c23f 434398052ebfba48 e428d13ad49e11a5\n"
    "bursty fq codel 92e8d0d7b243543a"
    " 2457d3f9f59f951f 268813065dd8dbfc cf80af6b7e4894e5 387acda07df54f99"
    " d9d1f2e734175136 e2c3408e81391088 b1f99dd3bccb256c 4204d30397b979c4\n"
    "lone dedicated overflow 767645f746712bba"
    " 2482ba54455aacce d9dc20d15d1ed1cd a1bcf1ddac9dfabd dfd49e54b08fa8a2"
    " b5201d4a545d57e4 8f8939be4477393a f64d1624f6c18f6d fda3337db95efe88\n"
    "lone dedicated pause 1c052db8e8a3b56a"
    " f0159fe10012575d 5a580a3f04b0790d 0c567ddd318a4363 022c47f0fc1bd80c"
    " 5f721660f0318084 11a990cb20661d31 f836db7d777b6a3f 8a9e929c62144cf1\n"
    "lone dedicated codel 38365e01ac1544a2"
    " 15819f75a7a4359b a73e0f79242e8203 54bb2c951a9bfc01 9a4248362310984e"
    " 6fb5261d20ca25c8 d3775ecf3fd28735 aaf4e56df302afe0 c672dd9540daa1e0\n"
    "lone round_robin overflow 767645f746712bba"
    " ae0135cfa71ecbdc d9dc20d15d1ed1cd 12186ff6d1e21165 dfd49e54b08fa8a2"
    " b5201d4a545d57e4 8f8939be4477393a f64d1624f6c18f6d fda3337db95efe88\n"
    "lone round_robin pause 1c052db8e8a3b56a"
    " 0e8717b354bf5fbb 5a580a3f04b0790d a2e2169bcf47d227 022c47f0fc1bd80c"
    " 5f721660f0318084 11a990cb20661d31 f836db7d777b6a3f 8a9e929c62144cf1\n"
    "lone round_robin codel 38365e01ac1544a2"
    " f2aafb7c8e7284d9 a73e0f79242e8203 db6e1c6a41eb85d5 9a4248362310984e"
    " 6fb5261d20ca25c8 d3775ecf3fd28735 aaf4e56df302afe0 c672dd9540daa1e0\n"
    "lone least_loaded overflow 767645f746712bba"
    " e3a5d5dea826baaa d9dc20d15d1ed1cd 197a2dd5c8672309 dfd49e54b08fa8a2"
    " b5201d4a545d57e4 8f8939be4477393a f64d1624f6c18f6d fda3337db95efe88\n"
    "lone least_loaded pause 1c052db8e8a3b56a"
    " c27e9b638b0e1673 5a580a3f04b0790d 36748d6c930665b9 022c47f0fc1bd80c"
    " 5f721660f0318084 11a990cb20661d31 f836db7d777b6a3f 8a9e929c62144cf1\n"
    "lone least_loaded codel 38365e01ac1544a2"
    " afc2730ba54653cf a73e0f79242e8203 37bb50b91f5d252d 9a4248362310984e"
    " 6fb5261d20ca25c8 d3775ecf3fd28735 aaf4e56df302afe0 c672dd9540daa1e0\n"
    "lone fq overflow 767645f746712bba"
    " 4038448c1c3884f7 47cf042bea78947c 7bfbb3e9c8bb5c0d dfd49e54b08fa8a2"
    " 18b744416e9c0ba1 8f8939be4477393a 5e8dfdebf997404a 78335937ad4d6039\n"
    "lone fq pause 1c052db8e8a3b56a"
    " d1b6c5817d86cd7a e93008f14eec9338 9c5d368e1abfe861 022c47f0fc1bd80c"
    " 013380514e7de2d1 11a990cb20661d31 b405cdc559a4f842 d4fbe5eae4ff470d\n"
    "lone fq codel 38365e01ac1544a2"
    " 0987100375dc2296 498200e5aece2296 4a80bb94da91a6ed 9a4248362310984e"
    " e1f8663c3e533c97 d3775ecf3fd28735 d70774c2ac779cdd a4ceec810a6810a2\n";

TEST(StreamScheduler, EveryExportIsPinned) {
  const std::string one = export_matrix(1);
  EXPECT_EQ(one, kPinnedExportDigests);
  EXPECT_EQ(export_matrix(4), one);
}

// Lanes run in contiguous blocks (one per 256 lanes), and static pools in
// windows of kStaticWindow rounds. 600 lanes make three blocks and 200
// noisy rounds four stream windows; every export must match at threads 1
// and 4, and each run takes exactly the windows it needs.
TEST(StreamScheduler, LaneBlocksAndWindowsKeepExports) {
  StreamConfig config;
  config.lanes = 600;
  config.distance = 3;
  config.p = 0.02;
  config.rounds = 200;
  config.seed = 5;
  config.cycles_per_round = 12;
  config.max_drain_rounds = 200;
  const SyndromeTrace trace = record_trace(config);

  for (const auto& [policy, engines] :
       {std::pair<const char*, int>{"dedicated", 600},
        std::pair<const char*, int>{"round_robin:offset=7", 450}}) {
    SCOPED_TRACE(policy);
    const auto run = [&](int threads, bool profile) {
      StreamConfig c = config;
      c.policy = policy;
      c.engines = engines;
      c.threads = threads;
      if (profile) {
        c.obs.profile = true;
      } else {
        c.obs.trace = true;
        c.obs.metrics = true;
        c.obs.metrics_window = 8;
        c.obs.slo = "sojourn_p99<4";
      }
      return run_stream(trace, c);
    };
    const StreamOutcome serial = run(1, false);
    EXPECT_GT(serial.drained_lanes, 0);
    EXPECT_GT(serial.telemetry.timeline.back().round, trace.rounds());
    EXPECT_EQ(export_digests(run(4, false)), export_digests(serial));

    const StreamOutcome one = run(1, true);
    const StreamOutcome four = run(4, true);
    EXPECT_EQ(dispatches(one), expected_windows(one, trace.rounds()));
    EXPECT_EQ(dispatches(four), dispatches(one));
    EXPECT_GE(dispatches(one), 5u);
  }
}

// A shared pool over three lane blocks with admission on: each block runs
// its lanes' admission step and fills its own metrics partials, so a
// cross-block merge bug would show here (the pins above run one block).
// Both cells must hash alike at threads 1 and 4, to pinned digests.
TEST(StreamScheduler, MultiBlockSharedPoolExportsArePinned) {
  StreamConfig config;
  config.lanes = 600;
  config.distance = 3;
  config.p = 0.04;
  config.rounds = 24;
  config.seed = 9;
  config.cycles_per_round = 10;
  config.max_drain_rounds = 200;
  config.engines = 120;
  config.obs.trace = true;
  config.obs.trace_ring = 256;
  config.obs.metrics = true;
  config.obs.metrics_window = 8;
  config.obs.slo = "sojourn_p99<4";
  const SyndromeTrace trace = record_trace(config);

  const struct {
    const char* policy;
    const char* admission;
    const char* digests;
  } cells[] = {
      {"fq", "codel",
       " 8daa98e8c185c2cb 7dfe01918c2a846c 021f292d751fd0d3 3fd53fe489a9c024"
       " 82fbde49684de354 f775da47c754266a 735ed8c34ee36f10 6ef2c32c0f73b93a"
       " 87df2a31c3560561"},
      {"round_robin", "pause",
       " f86c793413d96c92 4089e8e8d685df74 9adb61a14cc0de66 cd3e130527864660"
       " c30b108a874cdd3d d9f561b218a6b994 b8088d4b5681b280 bb4c0f3e319b52d3"
       " 6a1035c6c5bdc200"},
  };
  for (const auto& cell : cells) {
    StreamConfig c = config;
    c.policy = cell.policy;
    c.admission = cell.admission;
    c.threads = 1;
    const StreamOutcome serial = run_stream(trace, c);
    int pauses = 0;
    for (const auto& lane : serial.telemetry.lanes) pauses += lane.pauses;
    EXPECT_GT(pauses, 0) << cell.policy;
    const std::string digests = export_digests(serial);
    EXPECT_EQ(digests, cell.digests) << cell.policy << " " << cell.admission;
    c.threads = 4;
    EXPECT_EQ(export_digests(run_stream(trace, c)), digests) << cell.policy;
  }
}

// Run-end ledger: every lane-round, grant and cycle is counted once, so the
// per-lane, per-round and per-engine views sum to the same totals, and the
// windowed metrics counters sum to the lane totals. 600 lanes run as three
// lane blocks, so a block that drops or double-counts its share shows.
TEST(StreamScheduler, RunEndLedgerReconciles) {
  StreamConfig config;
  config.lanes = 600;
  config.distance = 3;
  config.p = 0.04;
  config.rounds = 24;
  config.seed = 9;
  config.cycles_per_round = 10;
  config.max_drain_rounds = 200;
  config.obs.metrics = true;
  config.obs.metrics_window = 8;
  const SyndromeTrace trace = record_trace(config);

  // The dedicated cell's clock loses a third of its lanes to overflow;
  // the shared pools starve and pause lanes instead.
  const struct {
    const char* policy;
    const char* admission;
    int engines;
    double cycles_per_round;
  } cells[] = {
      {"dedicated", "overflow", 0, 8},
      {"round_robin", "pause", 120, 10},
      {"least_loaded", "codel", 120, 10},
      {"fq", "codel", 120, 10},
  };
  for (const auto& cell : cells) {
    for (const int threads : {1, 4}) {
      StreamConfig c = config;
      c.policy = cell.policy;
      c.admission = cell.admission;
      c.engines = cell.engines;
      c.cycles_per_round = cell.cycles_per_round;
      c.threads = threads;
      const StreamOutcome outcome = run_stream(trace, c);
      const StreamTelemetry& t = outcome.telemetry;
      const std::string where = std::string(cell.policy) + "+" +
                                cell.admission + " threads " +
                                std::to_string(threads);

      std::int64_t served = 0, starved = 0, paused = 0, streamed = 0;
      std::int64_t drained = 0, popped = 0, pauses = 0, resumes = 0;
      std::int64_t hist = 0;
      std::uint64_t lane_cycles = 0;
      for (const auto& lane : t.lanes) {
        served += lane.served_rounds;
        starved += lane.starved_rounds;
        paused += lane.paused_rounds;
        streamed += lane.rounds_streamed;
        drained += lane.drain_rounds;
        popped += lane.popped_layers;
        pauses += lane.pauses;
        resumes += lane.resumes;
        lane_cycles += lane.total_cycles;
        for (const auto count : lane.depth_hist) {
          hist += static_cast<std::int64_t>(count);
        }
      }
      const std::int64_t pushed = streamed + drained;
      std::int64_t round_served = 0, round_starved = 0, round_paused = 0;
      std::int64_t round_live = 0;
      std::uint64_t round_cycles = 0;
      for (const auto& sample : t.timeline) {
        round_served += sample.served_lanes;
        round_starved += sample.starved_lanes;
        round_paused += sample.paused_lanes;
        round_live += sample.live_lanes;
        round_cycles += sample.cycles;
      }
      std::int64_t busy = 0;
      std::uint64_t engine_cycles = 0;
      for (const auto& engine : t.engine_stats) {
        busy += engine.busy_rounds;
        engine_cycles += engine.cycles;
      }
      const int overflowed = outcome.overflow_lanes;
      // No identity below holds vacuously.
      if (cell.engines == 0) {
        EXPECT_GT(overflowed, 0) << where;
        EXPECT_LT(overflowed, c.lanes) << where;
      } else {
        EXPECT_GT(starved, 0) << where;
        EXPECT_GT(pauses, 0) << where;
      }
      EXPECT_GT(drained, 0) << where;

      EXPECT_EQ(served, round_served) << where;
      EXPECT_EQ(served, busy) << where;
      EXPECT_EQ(starved, round_starved) << where;
      EXPECT_EQ(paused, round_paused) << where;
      EXPECT_EQ(round_live, pushed + overflowed) << where;
      EXPECT_EQ(hist, round_live + round_paused) << where;
      EXPECT_EQ(lane_cycles, round_cycles) << where;
      EXPECT_EQ(lane_cycles, engine_cycles) << where;

      const obs::MetricsRegistry& m = *outcome.metrics;
      const auto total = [&m](const char* name) {
        for (int i = 0; i < m.num_counters(); ++i) {
          if (m.counter_name(i) == name) {
            return static_cast<std::int64_t>(m.counter_total(i));
          }
        }
        ADD_FAILURE() << "no counter " << name;
        return std::int64_t{-1};
      };
      EXPECT_EQ(total("pushes"), streamed) << where;
      EXPECT_EQ(total("drain_pushes"), drained) << where;
      EXPECT_EQ(total("pops"), popped) << where;
      EXPECT_EQ(total("serves"), served) << where;
      EXPECT_EQ(total("starves"), starved) << where;
      EXPECT_EQ(total("overflows"), overflowed) << where;
      EXPECT_EQ(total("pauses"), pauses) << where;
      EXPECT_EQ(total("resumes"), resumes) << where;
    }
  }
}

TEST(StreamScheduler, FairnessIndexFormula) {
  StreamTelemetry t;
  t.lanes.resize(3);
  for (auto& lane : t.lanes) lane.served_rounds = 5;
  EXPECT_DOUBLE_EQ(t.fairness_index(), 1.0);
  t.lanes[0].served_rounds = 10;
  t.lanes[1].served_rounds = 0;
  t.lanes[2].served_rounds = 0;
  EXPECT_NEAR(t.fairness_index(), 1.0 / 3.0, 1e-12);
  for (auto& lane : t.lanes) lane.served_rounds = 0;
  EXPECT_DOUBLE_EQ(t.fairness_index(), 1.0) << "nothing served: vacuously fair";
}

}  // namespace
}  // namespace qec
