// Tests for the lane QoS subsystem (src/stream/qos.*): the sojourn clock
// produces exact end-to-end round latencies, the CoDel control law pauses
// on sustained latency with the square-root interval shrink, the fq
// (FQ-CoDel DRR) policy grants distinct backlogged lanes and degenerates
// to round_robin-equivalent fairness at equal quantum, codel/fq outcomes
// and all four CSVs are thread-count invariant, overflow+dedicated stays
// byte-identical to the PR 4 goldens, and in a bursty K < N scenario
// admission=codel achieves p99 sojourn <= admission=pause with a
// surviving-lane fraction no worse.
#include "stream/qos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/admission.hpp"
#include "stream/scheduler.hpp"
#include "stream/service.hpp"
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

std::string csv_of(const StreamOutcome& outcome, const char* name,
                   bool (StreamTelemetry::*writer)(const std::string&) const) {
  const std::string path = temp_path(name);
  EXPECT_TRUE((outcome.telemetry.*writer)(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  return text;
}

TEST(LatencyTracker, SamplesAreExactEndToEndRoundLatencies) {
  LatencyTracker tracker(/*capacity=*/3);
  obs::LogHistogram sink;  // every sample, as the service's metrics see it
  EXPECT_EQ(tracker.head_age(5), 0);
  tracker.on_push(0, /*real=*/true);
  tracker.on_push(1, /*real=*/true);
  EXPECT_EQ(tracker.in_flight(), 2);
  EXPECT_EQ(tracker.head_age(2), 2);  // pushed at 0, two rounds old

  tracker.on_pops(1, 2, &sink);  // head decoded during round 2: sojourn 3
  EXPECT_EQ(tracker.table(), ValueCounts({3}));
  EXPECT_EQ(tracker.head_age(3), 2);  // new head pushed at 1

  tracker.on_push(2, /*real=*/false);  // clean drain layer: no sample
  tracker.on_pops(2, 4, &sink);  // the ring's head wraps past its last slot
  EXPECT_EQ(tracker.table(), ValueCounts({3, 4}));
  EXPECT_EQ(tracker.counts()[4], 1u);  // pushed 1, popped 4
  EXPECT_EQ(tracker.in_flight(), 0);
  EXPECT_EQ(tracker.percentile(50), 3u);
  EXPECT_EQ(tracker.percentile(99), 4u);

  // A layer decoded within its arrival round has sojourn 1 (never 0).
  tracker.on_push(7, /*real=*/true);
  tracker.on_pops(1, 7, &sink);
  EXPECT_EQ(tracker.counts()[1], 1u);
  EXPECT_EQ(tracker.counts()[0], 0u);
  EXPECT_EQ(tracker.table(), ValueCounts({3, 4, 1}));
  // The sink saw the same three samples (the drain layer made none).
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.sum(), 3u + 4u + 1u);
  EXPECT_EQ(sink.max(), 4u);

  // Reporting more pops than in-flight layers is an accounting bug.
  EXPECT_THROW(tracker.on_pops(1, 8), std::logic_error);
}

TEST(LatencyTracker, RingHoldsExactlyTheRegDepth) {
  LatencyTracker tracker(/*capacity=*/2);
  tracker.on_push(0, /*real=*/true);
  tracker.on_push(1, /*real=*/true);
  // A third resident layer would have overflowed the engine's Reg.
  EXPECT_THROW(tracker.on_push(2, /*real=*/true), std::logic_error);
  EXPECT_EQ(tracker.in_flight(), 2);

  // Cycling far past the capacity reuses the same two slots.
  for (std::int64_t round = 2; round < 40; ++round) {
    tracker.on_pops(1, round);
    tracker.on_push(round, /*real=*/true);
  }
  EXPECT_EQ(tracker.in_flight(), 2);
  EXPECT_EQ(tracker.head_age(40), 2);  // pushed at 38
  // Every layer was popped two rounds after its arrival round: sojourn 3.
  EXPECT_EQ(tracker.table(), ValueCounts::from_dense({0, 0, 0, 38}));

  // A frozen lane's layer can wait far longer than the Reg depth: the
  // count table grows to hold it.
  tracker.on_pops(2, 1000);
  EXPECT_EQ(tracker.counts().size(), 964u);
  EXPECT_EQ(tracker.percentile(100), 963u);
}

TEST(CodelControl, PausesAfterASustainedIntervalAboveTarget) {
  CodelControl codel(/*target=*/3, /*interval=*/10);

  // Below target, or not a standing queue: never pauses, never arms.
  for (std::int64_t now = 0; now < 20; ++now) {
    EXPECT_FALSE(codel.should_pause(now, 2, 5));
    EXPECT_FALSE(codel.should_pause(now, 10, 1));  // one resident layer
  }
  EXPECT_EQ(codel.consecutive_pauses(), 0);

  // Sustained sojourn >= target: arms at the first above round, pauses
  // once a full interval of consecutive above rounds elapsed.
  for (std::int64_t now = 0; now < 9; ++now) {
    EXPECT_FALSE(codel.should_pause(now, 5, 4)) << "round " << now;
  }
  EXPECT_TRUE(codel.should_pause(9, 5, 4));
  EXPECT_EQ(codel.consecutive_pauses(), 1);

  // A dip below target disarms: the count starts over.
  EXPECT_FALSE(codel.should_pause(10, 5, 4));
  EXPECT_FALSE(codel.should_pause(11, 1, 4));  // healthy round, disarm
  EXPECT_FALSE(codel.should_pause(12, 5, 4));  // re-arm
  EXPECT_FALSE(codel.should_pause(20, 5, 4));
  EXPECT_TRUE(codel.should_pause(21, 5, 4));  // 12..21 = 10 rounds above
}

TEST(CodelControl, ConsecutivePausesShrinkTheIntervalBySqrt) {
  CodelControl codel(/*target=*/3, /*interval=*/10);
  for (std::int64_t now = 0; now < 9; ++now) {
    ASSERT_FALSE(codel.should_pause(now, 5, 4));
  }
  ASSERT_TRUE(codel.should_pause(9, 5, 4));
  ASSERT_EQ(codel.consecutive_pauses(), 1);
  // The second consecutive pause waits interval / sqrt(2) ~ 7 rounds.
  EXPECT_EQ(codel.next_deadline_rounds(), 7);

  // Re-admitted at 15, immediately congested again: the shrunken deadline
  // applies because the re-arm falls within `interval` of the resume.
  codel.on_resume(15);
  for (std::int64_t now = 16; now < 22; ++now) {
    EXPECT_FALSE(codel.should_pause(now, 5, 4)) << "round " << now;
  }
  EXPECT_TRUE(codel.should_pause(22, 5, 4));  // 16..22 = 7 rounds above
  EXPECT_EQ(codel.consecutive_pauses(), 2);
  EXPECT_EQ(codel.next_deadline_rounds(), 6);  // 10 / sqrt(3)

  // A long healthy stretch after a resume resets the consecutive count:
  // the next congestion event gets the full interval again.
  codel.on_resume(30);
  EXPECT_FALSE(codel.should_pause(35, 1, 4));
  for (std::int64_t now = 60; now < 69; ++now) {
    EXPECT_FALSE(codel.should_pause(now, 5, 4)) << "round " << now;
  }
  EXPECT_TRUE(codel.should_pause(69, 5, 4));
  EXPECT_EQ(codel.consecutive_pauses(), 1);

  // Resume law: head sojourn back under target, or queue drained.
  EXPECT_TRUE(codel.should_resume(2, 5));
  EXPECT_TRUE(codel.should_resume(50, 0));
  EXPECT_FALSE(codel.should_resume(5, 3));
}

TEST(CodelControl, FixedPointShrinkMatchesFloatReference) {
  // The Q0.32 interval shrink (codel_rec_inv_sqrt + codel_shrunk_interval)
  // against the floating-point law it replaced, sweeping pause counts
  // 1..10^4 over the interval range the admission controller actually
  // uses (auto interval = 2 * reg_depth, spec intervals up to hundreds of
  // rounds). The full 32-bit Newton iteration carries >= 31 significant
  // bits, so the only admissible divergence is the half-ULP rounding of
  // values that land exactly between two integers — within +-1 round by
  // construction, and exact everywhere the product is not a rounding
  // knife-edge. Both behaviors are asserted: never more than 1 apart, and
  // exact for every count the pinned golden scenarios reach (k <= 64).
  const int intervals[] = {1, 2, 7, 10, 14, 100, 1000, 65535};
  for (const int interval : intervals) {
    for (std::uint32_t k = 1; k <= 10000; ++k) {
      const std::int64_t fixed =
          codel_shrunk_interval(interval, codel_rec_inv_sqrt(k));
      const auto reference = static_cast<std::int64_t>(std::llround(
          static_cast<double>(interval) / std::sqrt(static_cast<double>(k))));
      const std::int64_t clamped = reference < 1 ? 1 : reference;
      ASSERT_LE(std::llabs(fixed - clamped), 1)
          << "interval " << interval << " count " << k;
      if (k <= 64) {
        ASSERT_EQ(fixed, clamped)
            << "interval " << interval << " count " << k;
      }
    }
  }
}

TEST(CodelControl, NewtonStepConvergesToKnownRoots) {
  // Perfect squares have exactly representable reciprocal roots: the
  // converged Q0.32 value must hit round(2^32 / sqrt(k)) on the nose.
  EXPECT_EQ(codel_rec_inv_sqrt(1), 0xffffffffU);  // saturated 1.0
  EXPECT_EQ(codel_rec_inv_sqrt(4), 0x80000000U);  // exactly 0.5
  EXPECT_EQ(codel_rec_inv_sqrt(16), 0x40000000U);
  EXPECT_EQ(codel_rec_inv_sqrt(64), 0x20000000U);
  EXPECT_EQ(codel_rec_inv_sqrt(1U << 30), 1U << 17);
  // And the shrink through the saturated 1.0 is the identity.
  for (int interval : {1, 10, 1000, (1 << 30)}) {
    EXPECT_EQ(codel_shrunk_interval(interval, codel_rec_inv_sqrt(1)),
              interval);
  }
}

TEST(QosSpecs, CodelAdmissionParsingAndResolution) {
  const auto plain = parse_admission_spec("codel");
  EXPECT_TRUE(plain.pause());
  EXPECT_TRUE(plain.codel());
  EXPECT_EQ(plain.target, 0);    // auto
  EXPECT_EQ(plain.interval, 0);  // auto

  const auto tuned = parse_admission_spec("codel:target=5,interval=100");
  EXPECT_EQ(tuned.target, 5);
  EXPECT_EQ(tuned.interval, 100);

  // Autos resolve against reg_depth: target reg_depth/2, interval
  // 2*reg_depth, depth backstop at reg_depth, drain re-admission at
  // reg_depth/2.
  const auto resolved = resolve_admission(plain, 7);
  EXPECT_EQ(resolved.target, 3);
  EXPECT_EQ(resolved.interval, 14);
  EXPECT_EQ(resolved.high_water, 7);
  EXPECT_EQ(resolved.low_water, 3);
  const auto kept = resolve_admission(tuned, 7);
  EXPECT_EQ(kept.target, 5);
  EXPECT_EQ(kept.interval, 100);

  // Non-positive marks and options the mode does not understand throw.
  EXPECT_THROW(parse_admission_spec("codel:target=0"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("codel:interval=-1"),
               std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("codel:high=3"), std::invalid_argument);
  EXPECT_THROW(parse_admission_spec("pause:target=3"), std::invalid_argument);
  // Every offending key is named, not just the first.
  try {
    parse_admission_spec("codel:bogus=1,wrong=2");
    FAIL() << "unknown options must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    EXPECT_NE(what.find("'wrong'"), std::string::npos) << what;
  }
}

TEST(QosSpecs, FqPolicyParsing) {
  const auto names = registered_scheduler_policies();
  EXPECT_NE(std::find(names.begin(), names.end(), "fq"), names.end());
  EXPECT_NO_THROW(make_scheduler_policy("fq"));
  EXPECT_NO_THROW(make_scheduler_policy("fq:quantum=120"));
  EXPECT_THROW(make_scheduler_policy("fq:quantum=0"), std::invalid_argument);
  EXPECT_THROW(make_scheduler_policy("fq:quantum=-5"), std::invalid_argument);
  EXPECT_THROW(make_scheduler_policy("fq:bogus=1"), std::invalid_argument);
  EXPECT_TRUE(make_scheduler_policy("fq")->dynamic());
}

TEST(FqPolicy, GrantsDistinctBackloggedLanesNewListFirst) {
  const auto policy = make_scheduler_policy("fq");
  const std::vector<int> depth = {3, 0, 2, 1};
  const std::vector<std::uint8_t> finished = {0, 0, 0, 0};
  ScheduleView view;
  view.lanes = 4;
  view.engines = 2;
  view.depth = depth.data();
  view.finished = finished.data();
  view.grant_cycles = 10.0;

  std::vector<int> assignment(2, -1);
  std::vector<int> served(4, 0);
  for (int round = 0; round < 12; ++round) {
    view.round = round;
    std::fill(assignment.begin(), assignment.end(), -1);
    policy->assign(view, assignment);
    std::vector<bool> seen(4, false);
    for (const int lane : assignment) {
      ASSERT_GE(lane, 0) << "three lanes are backlogged; no engine idles";
      ASSERT_LT(lane, 4);
      EXPECT_GT(depth[static_cast<std::size_t>(lane)], 0)
          << "an empty lane must never be granted";
      EXPECT_FALSE(seen[static_cast<std::size_t>(lane)])
          << "one lane, two engines in one round";
      seen[static_cast<std::size_t>(lane)] = true;
      ++served[static_cast<std::size_t>(lane)];
    }
  }
  // DRR at equal quantum: the three backlogged lanes share 24 grants
  // evenly; the empty lane gets nothing.
  EXPECT_EQ(served[1], 0);
  EXPECT_EQ(served[0] + served[2] + served[3], 24);
  EXPECT_EQ(served[0], 8);
  EXPECT_EQ(served[2], 8);
  EXPECT_EQ(served[3], 8);
}

TEST(FqPolicy, SkipsPausedAndFinishedLanes) {
  const auto policy = make_scheduler_policy("fq");
  const std::vector<int> depth = {5, 5, 5, 5};
  const std::vector<std::uint8_t> finished = {1, 0, 0, 0};
  const std::vector<std::uint8_t> paused = {0, 1, 0, 0};
  ScheduleView view;
  view.lanes = 4;
  view.engines = 3;
  view.depth = depth.data();
  view.finished = finished.data();
  view.paused = paused.data();
  view.grant_cycles = 10.0;

  std::vector<int> assignment(3, -1);
  for (int round = 0; round < 6; ++round) {
    view.round = round;
    std::fill(assignment.begin(), assignment.end(), -1);
    policy->assign(view, assignment);
    int granted = 0;
    for (const int lane : assignment) {
      if (lane < 0) continue;
      ++granted;
      EXPECT_TRUE(lane == 2 || lane == 3) << "lane " << lane;
    }
    EXPECT_EQ(granted, 2) << "only two lanes are schedulable";
  }
}

/// One round of a DRR table row: each lane's Reg depth (a digit per
/// lane), its state ('.' schedulable, 'p' paused, 'f' finished), and the
/// lanes the policy grants, in engine order (-1 = idle engine).
struct DrrRound {
  const char* depth;
  const char* state;
  std::vector<int> grants;
};

/// A table row in the style of ns-3's FQ-CoDel queue-disc tests: one
/// policy spec, the pool shape, and the rounds it sees. Every grant was
/// captured from FqCodelPolicy and is pinned: a rewrite of assign() must
/// reproduce each one.
struct DrrCase {
  const char* rule;
  const char* spec;
  int engines;
  std::vector<DrrRound> rounds;
};

// Grant cost is 10 cycles throughout (grant_cycles = 10); "fq" tops up
// one grant's worth per turn.
const std::vector<DrrCase>& drr_cases() {
  static const std::vector<DrrCase> cases = {
      // Lane 1 empties while on the new list: it takes an old-list slot
      // behind lane 0 instead of retiring, so on returning in round 2 it
      // is not re-enrolled as new (that would serve it ahead of lane 0).
      {"an emptied new-list lane gets one old-list turn",
       "fq:quantum=20",
       1,
       {{"110", "...", {0}},
        {"101", "...", {2}},
        {"111", "...", {0}},
        {"111", "...", {1}}}},
      // The same turn for a lane that admission pauses on the new list.
      {"a paused new-list lane gets one old-list turn",
       "fq:quantum=20",
       1,
       {{"110", "...", {0}},
        {"111", ".p.", {2}},
        {"111", "...", {0}},
        {"111", "...", {1}}}},
      // Lane 1 is empty at its old-list turn in round 3 and retires. In
      // round 4 it re-enrolls as new, ahead of lane 2, which heads the
      // old list with a quantum of credit.
      {"an emptied lane retires at its old-list turn",
       "fq",
       1,
       {{"111", "...", {0}},
        {"010", "...", {1}},
        {"011", "...", {2}},
        {"101", "...", {0}},
        {"111", "...", {1}}}},
      // Round 3: lane 0 heads the old list with its deficit spent; it gets
      // one quantum (two grants' worth) and goes behind lane 1, which
      // still has credit and takes the engine.
      {"a spent lane gets one quantum and moves to the old-list tail",
       "fq:quantum=20",
       1,
       {{"10", "..", {0}},
        {"10", "..", {0}},
        {"11", "..", {1}},
        {"11", "..", {1}},
        {"11", "..", {0}},
        {"11", "..", {0}},
        {"11", "..", {1}}}},
      // A 4-cycle quantum against a 10-cycle grant: a lane needs up to
      // three top-ups before it can be granted, within the same round,
      // so the engine never idles while a lane is backlogged.
      {"a quantum below the grant cost needs several top-ups",
       "fq:quantum=4",
       1,
       {{"11", "..", {0}},
        {"11", "..", {1}},
        {"11", "..", {0}},
        {"11", "..", {1}},
        {"11", "..", {0}},
        {"11", "..", {1}}}},
      // Two engines, three lanes: a second sweep meets the lane granted
      // earlier in the round, which goes to the old-list tail as if
      // served; the grants rotate evenly. Lane 3 is finished throughout.
      {"a lane already granted this round keeps its rotation slot",
       "fq",
       2,
       {{"1111", "...f", {0, 1}},
        {"1111", "...f", {2, 0}},
        {"1111", "...f", {1, 2}},
        {"1111", "...f", {0, 1}},
        {"1111", "...f", {2, 0}}}},
  };
  return cases;
}

TEST(FqPolicy, DrrRulesArePinnedRoundByRound) {
  for (const DrrCase& row : drr_cases()) {
    SCOPED_TRACE(row.rule);
    const auto policy = make_scheduler_policy(row.spec);
    const int lanes = static_cast<int>(std::string(row.rounds[0].depth).size());
    std::vector<int> depth(static_cast<std::size_t>(lanes));
    std::vector<std::uint8_t> finished(depth.size()), paused(depth.size());
    ScheduleView view;
    view.lanes = lanes;
    view.engines = row.engines;
    view.depth = depth.data();
    view.finished = finished.data();
    view.paused = paused.data();
    view.grant_cycles = 10.0;
    std::vector<int> assignment(static_cast<std::size_t>(row.engines));
    for (std::size_t r = 0; r < row.rounds.size(); ++r) {
      const DrrRound& round = row.rounds[r];
      for (std::size_t lane = 0; lane < depth.size(); ++lane) {
        depth[lane] = round.depth[lane] - '0';
        paused[lane] = round.state[lane] == 'p';
        finished[lane] = round.state[lane] == 'f';
      }
      view.round = static_cast<std::int64_t>(r);
      std::fill(assignment.begin(), assignment.end(), -1);
      policy->assign(view, assignment);
      EXPECT_EQ(assignment, round.grants) << "round " << r;
    }
  }
}

/// An all-lanes-backlogged scenario where nothing dies: with an
/// unconstrained cycle budget a granted lane fully drains, an ungranted
/// one queues a couple of layers — queues stay far from reg_depth, and
/// both fq and round_robin rotate over the whole fleet.
StreamConfig backlogged_config() {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 30;
  config.seed = 7;
  config.engines = 2;
  config.cycles_per_round = 0.0;  // unconstrained per grant
  return config;
}

TEST(FqPolicy, DegeneratesToRoundRobinFairnessAtEqualQuantum) {
  StreamConfig config = backlogged_config();
  const auto trace = record_trace(config);

  config.policy = "fq";
  const auto fq = run_stream(trace, config);
  config.policy = "round_robin";
  const auto rr = run_stream(trace, config);

  // Queues stay shallow in both runs (decode order differs, so logical
  // outcomes may — the comparison here is about *service*, not accuracy).
  ASSERT_EQ(fq.overflow_lanes, 0);
  ASSERT_EQ(rr.overflow_lanes, 0);

  // Equal quantum, everyone perpetually backlogged: DRR is a rotation —
  // service counts as even as the fixed TDM rotation's (Jain ~ 1, spread
  // at most one grant between any two lanes).
  EXPECT_GE(fq.telemetry.fairness_index(),
            rr.telemetry.fairness_index() - 0.01);
  EXPECT_GT(fq.telemetry.fairness_index(), 0.99);
  int fq_min = INT32_MAX, fq_max = 0;
  for (const auto& lane : fq.telemetry.lanes) {
    fq_min = std::min(fq_min, lane.served_rounds);
    fq_max = std::max(fq_max, lane.served_rounds);
  }
  EXPECT_LE(fq_max - fq_min, 2);
}

// Telemetry CSV of the pre-refactor (PR 2) run_stream for lanes=4, d=5,
// p=0.02, rounds=10, seed=7, 60 cycles/round — the same golden capture
// stream_scheduler_test and stream_admission_test pin. The QoS layer
// (sojourn clocks on every lane, grant_cycles in the schedule view) must
// keep overflow+dedicated reproducing it byte for byte.
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

TEST(QosDeterminism, OverflowDedicatedStaysByteIdenticalToPr4Goldens) {
  StreamConfig config;
  config.lanes = 4;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 10;
  config.seed = 7;
  config.cycles_per_round = 60;
  config.policy = "dedicated";
  config.admission = "overflow";
  EXPECT_EQ(csv_of(run_stream(load_trace_fixture("golden.qtrc", config), config),
                   "qos_golden.csv",
                   &StreamTelemetry::write_csv),
            kGoldenPr2Csv);
}

TEST(QosDeterminism, CodelFqOutcomesThreadCountInvariant) {
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.engines = 2;
  config.policy = "fq";
  config.cycles_per_round = 20;  // starved enough to trigger codel pauses
  config.admission = "codel";
  const auto trace = record_trace(config);

  config.threads = 1;
  const auto serial = run_stream(trace, config);
  config.threads = 4;
  const auto parallel = run_stream(trace, config);

  EXPECT_GT(serial.telemetry.ever_paused_lanes(), 0)
      << "the scenario must actually exercise codel pauses";
  EXPECT_EQ(csv_of(serial, "qos_t1.csv", &StreamTelemetry::write_csv),
            csv_of(parallel, "qos_t4.csv", &StreamTelemetry::write_csv));
  EXPECT_EQ(
      csv_of(serial, "qos_s1.csv", &StreamTelemetry::write_schedule_csv),
      csv_of(parallel, "qos_s4.csv", &StreamTelemetry::write_schedule_csv));
  EXPECT_EQ(
      csv_of(serial, "qos_r1.csv", &StreamTelemetry::write_timeline_csv),
      csv_of(parallel, "qos_r4.csv", &StreamTelemetry::write_timeline_csv));
  EXPECT_EQ(
      csv_of(serial, "qos_l1.csv", &StreamTelemetry::write_latency_csv),
      csv_of(parallel, "qos_l4.csv", &StreamTelemetry::write_latency_csv));
}

TEST(QosDeterminism, SojournAccountingIsConsistent) {
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

  for (const auto& lane : outcome.telemetry.lanes) {
    // Every decoded trace layer produced exactly one sample; a drained
    // lane decoded them all. Sojourns count at least the arrival round.
    const ValueCounts& soj = lane.sojourn_rounds;
    EXPECT_LE(soj.total(), static_cast<std::uint64_t>(lane.rounds_streamed));
    if (lane.drained) {
      EXPECT_EQ(soj.total(), static_cast<std::uint64_t>(lane.rounds_streamed));
    }
    if (!soj.empty()) {
      EXPECT_GE(soj.min(), 1u);
    }
    EXPECT_LE(soj.percentile(50), soj.percentile(99));
    EXPECT_EQ(lane.layer_cycles.total(),
              static_cast<std::uint64_t>(lane.popped_layers));
  }
  // The aggregate tables are the per-lane tables summed.
  const auto all = outcome.telemetry.aggregate();
  std::uint64_t sojourn_samples = 0, cycle_samples = 0;
  for (const auto& lane : outcome.telemetry.lanes) {
    sojourn_samples += lane.sojourn_rounds.total();
    cycle_samples += lane.layer_cycles.total();
  }
  EXPECT_EQ(all.sojourn_rounds.total(), sojourn_samples);
  EXPECT_EQ(all.layer_cycles.total(), cycle_samples);
}

/// The acceptance scenario: a shared pool at K < N under real sampled
/// noise, starved enough that every admission mode pauses (or loses)
/// lanes. CoDel pauses on sustained sojourn *before* the queue fills, so
/// its end-to-end p99 must not exceed depth-triggered pause mode's, while
/// keeping at least as many lanes alive.
TEST(QosAcceptance, CodelP99SojournNoWorseThanPauseAtKLessThanN) {
  StreamConfig config;
  config.lanes = 16;
  config.distance = 5;
  config.p = 0.01;
  config.rounds = 96;
  config.seed = 2021;
  config.engines = 4;  // K < N
  config.policy = "least_loaded";
  config.cycles_per_round = 40;
  const auto trace = record_trace(config);

  config.admission = "pause";
  const auto pause = run_stream(trace, config);
  config.admission = "codel";
  const auto codel = run_stream(trace, config);

  ASSERT_GT(pause.telemetry.ever_paused_lanes(), 0)
      << "the scenario must actually be over-subscribed";
  ASSERT_GT(codel.telemetry.ever_paused_lanes(), 0);

  const auto pause_all = pause.telemetry.aggregate();
  const auto codel_all = codel.telemetry.aggregate();
  EXPECT_LE(codel_all.sojourn_rounds.percentile(99),
            pause_all.sojourn_rounds.percentile(99));
  EXPECT_LE(codel.failed_lanes, pause.failed_lanes);

  // The latency CSV reports every lane — paused lanes included — plus the
  // aggregate row, each with its own percentiles.
  const std::string csv =
      csv_of(codel, "qos_lat.csv", &StreamTelemetry::write_latency_csv);
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, static_cast<std::size_t>(config.lanes) + 2);  // header + lanes + all
  for (const auto& lane : codel.telemetry.lanes) {
    if (lane.pauses > 0) {
      EXPECT_GT(lane.sojourn_rounds.total(), 0u)
          << "paused lane " << lane.lane
          << " must still report its latency distribution";
    }
  }
}

}  // namespace
}  // namespace qec
