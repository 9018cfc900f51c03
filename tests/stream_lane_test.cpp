// Tests for the per-lane step of the streaming service (src/stream/lane.hpp):
// a Lane driven directly, one admit()/run() pair per round, on small
// hand-built all-zero traces. Each test pins one rule of the lane state
// machine: when a round is starved, that overflow is terminal and reported
// once, where pause freezes and resumes a lane, that codel resumes on
// sojourn before the low-water mark, and that a finished lane is never
// paused.
#include "stream/lane.hpp"

#include <gtest/gtest.h>

#include <string>

#include "decoder/registry.hpp"
#include "obs/trace.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

/// A one-lane trace of `rounds` all-zero difference layers at distance 3.
SyndromeTrace zero_trace(const PlanarLattice& lattice, int rounds) {
  TraceHeader header;
  header.distance = static_cast<std::uint32_t>(lattice.distance());
  header.lanes = 1;
  header.rounds = static_cast<std::uint32_t>(rounds);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  return SyndromeTrace(header);
}

/// Lane 0 of `trace` under `admission`, granted `cycles` per engine grant
/// (0: unconstrained, so a grant empties a queue of all-zero layers).
Lane make_lane(const PlanarLattice& lattice, const SyndromeTrace& trace,
               const std::string& engine, const std::string& admission,
               double cycles = 0.0, obs::Track* track = nullptr) {
  OnlineConfig online;
  online.engine = online_engine_config(engine);
  online.cycles_per_round = cycles;
  return Lane(lattice, online, 0,
              resolve_admission(parse_admission_spec(admission),
                                online.engine.reg_depth),
              trace.rounds(), track);
}

int depth(const Lane& lane) { return lane.stepper.engine().stored_layers(); }

TEST(StreamLane, StarvedExactlyWhenBackloggedAndUngranted) {
  const PlanarLattice lattice(3);
  const SyndromeTrace trace = zero_trace(lattice, 12);
  Lane lane = make_lane(lattice, trace, "qecool", "overflow");
  int starved = 0;
  int backlogged_ungranted = 0;
  for (int round = 0; round < 12; ++round) {
    // A grant every third round empties the queue, so of the ungranted
    // rounds, those right after a grant (and round 0) have no backlog.
    const bool granted = round % 3 == 2;
    const bool backlog = depth(lane) > 0;
    const LaneRound did = lane.run(round, granted, trace);
    ASSERT_TRUE(did.pushed) << "round " << round;
    EXPECT_EQ(did.starved, backlog && !granted) << "round " << round;
    EXPECT_EQ(did.served, granted) << "round " << round;
    EXPECT_EQ(did.depth, depth(lane));
    starved += did.starved;
    backlogged_ungranted += backlog && !granted;
  }
  EXPECT_EQ(backlogged_ungranted, 4);  // rounds 1, 4, 7 and 10
  EXPECT_EQ(lane.telemetry.starved_rounds, starved);
  EXPECT_EQ(lane.telemetry.served_rounds, 4);
}

TEST(StreamLane, OverflowIsTerminalAndReportedOnce) {
  const PlanarLattice lattice(3);
  const SyndromeTrace trace = zero_trace(lattice, 20);
  obs::Track track(obs::TrackKind::kLane, 0, 256);
  Lane lane = make_lane(lattice, trace, "qecool", "overflow", 0.0, &track);
  const int reg_depth = QecoolConfig{}.reg_depth;
  int overflows = 0;
  int round = 0;
  // Never granted: the Reg fills one layer per round until a push fails.
  for (; round < trace.rounds() && !lane.finished(); ++round) {
    const LaneRound did = lane.run(round, false, trace);
    EXPECT_EQ(did.overflowed, !did.pushed);
    EXPECT_EQ(did.overflowed, round == reg_depth) << "round " << round;
    overflows += did.overflowed;
  }
  EXPECT_EQ(overflows, 1);
  EXPECT_EQ(round, reg_depth + 1);
  EXPECT_TRUE(lane.finished());
  EXPECT_EQ(lane.telemetry.rounds_streamed, reg_depth);
  int overflow_events = 0;
  track.ring().for_each([&](const obs::TraceEvent& event) {
    overflow_events +=
        event.kind == static_cast<std::uint16_t>(obs::EventKind::kOverflow);
  });
  EXPECT_EQ(overflow_events, 1);
  lane.finish(trace, lattice);
  EXPECT_TRUE(lane.telemetry.overflow);
  EXPECT_FALSE(lane.telemetry.drained);
}

TEST(StreamLane, PauseFreezesAtHighWaterAndResumesAtLowWater) {
  const PlanarLattice lattice(3);
  const SyndromeTrace trace = zero_trace(lattice, 30);
  // 4 cycles a grant pop one all-zero layer.
  Lane lane = make_lane(lattice, trace, "qecool", "pause:high=5,low=3", 4.0);
  int round = 0;
  // No grants: the queue grows by one a round up to the high-water mark.
  for (; round < 5; ++round) {
    const LaneAdmit step = lane.admit(round);
    EXPECT_FALSE(step.pause) << "depth " << step.depth;
    lane.run(round, false, trace);
  }
  LaneAdmit step = lane.admit(round);
  EXPECT_TRUE(step.pause);
  EXPECT_TRUE(step.paused);
  EXPECT_EQ(step.depth, 5);
  // Frozen: without a grant nothing is pushed or popped, the cursor stays
  // put and the lane stays paused.
  const int cursor = lane.cursor;
  for (int frozen = 0; frozen < 3; ++frozen, ++round) {
    if (frozen > 0) step = lane.admit(round);
    EXPECT_TRUE(step.paused);
    const LaneRound did = lane.run(round, false, trace);
    EXPECT_TRUE(did.paused);
    EXPECT_FALSE(did.pushed);
    EXPECT_FALSE(did.starved);
    EXPECT_EQ(did.depth, 5);
  }
  // Grants drain one layer a round; the lane stays paused above the
  // low-water mark and resumes on reaching it.
  for (const int expect : {4, 3}) {
    step = lane.admit(round);
    EXPECT_FALSE(step.resume);
    EXPECT_TRUE(step.paused);
    const LaneRound did = lane.run(round++, true, trace);
    EXPECT_TRUE(did.served);
    EXPECT_EQ(did.depth, expect);
  }
  step = lane.admit(round);
  EXPECT_TRUE(step.resume);
  EXPECT_FALSE(step.paused);
  EXPECT_EQ(step.depth, 3);
  EXPECT_EQ(lane.cursor, cursor);
  EXPECT_TRUE(lane.run(round, true, trace).pushed);
  EXPECT_EQ(lane.cursor, cursor + 1);
  EXPECT_EQ(lane.telemetry.paused_rounds, 5);
  EXPECT_EQ(lane.telemetry.pauses, 1);
  EXPECT_EQ(lane.telemetry.resumes, 1);
}

TEST(StreamLane, CodelResumesOnSojournBeforeTheLowWaterMark) {
  const PlanarLattice lattice(3);
  const SyndromeTrace trace = zero_trace(lattice, 60);
  // reg_depth 15: the automatic low-water mark is 7, the high-water mark
  // 15. 12 cycles a grant pop two all-zero layers.
  Lane lane = make_lane(lattice, trace, "qecool:reg_depth=15",
                        "codel:target=10,interval=1", 12.0);
  ASSERT_EQ(lane.admission.low_water, 7);
  // No grants: the head sojourn grows one a round until it has stayed at
  // or above the target for the one-round interval.
  LaneAdmit step;
  int round = 0;
  for (; round < 15; ++round) {
    step = lane.admit(round);
    if (step.pause) break;
    lane.run(round, false, trace);
  }
  ASSERT_TRUE(step.pause);
  EXPECT_EQ(round, 10);
  EXPECT_EQ(step.depth, 10);
  EXPECT_LT(step.depth, lane.admission.high_water);
  // One grant pops the two oldest layers: the new head is under target,
  // so the lane resumes with its queue still above the low-water mark.
  EXPECT_EQ(lane.run(round++, true, trace).depth, 8);
  EXPECT_LT(lane.qos.head_age(round), 10);
  step = lane.admit(round);
  EXPECT_TRUE(step.resume);
  EXPECT_FALSE(step.paused);
  EXPECT_GT(step.depth, lane.admission.low_water);
}

TEST(StreamLane, FinishedLaneIsNeverPaused) {
  const PlanarLattice lattice(3);
  // Overflowed: a full Reg, at the high-water mark, yet not paused.
  {
    const SyndromeTrace trace = zero_trace(lattice, 20);
    Lane lane = make_lane(lattice, trace, "qecool", "pause");
    for (int round = 0; round < 20 && !lane.finished(); ++round) {
      lane.run(round, false, trace);
    }
    ASSERT_TRUE(lane.stepper.overflowed());
    const LaneAdmit step = lane.admit(20);
    EXPECT_TRUE(step.finished);
    EXPECT_FALSE(step.pause);
    EXPECT_FALSE(step.paused);
    EXPECT_GE(step.depth, lane.admission.high_water);
  }
  // Drained: the whole trace consumed and the queue empty.
  {
    const SyndromeTrace trace = zero_trace(lattice, 4);
    Lane lane = make_lane(lattice, trace, "qecool", "codel");
    int round = 0;
    for (; !lane.finished() && round < 40; ++round) {
      EXPECT_FALSE(lane.admit(round).pause);
      lane.run(round, true, trace);
    }
    ASSERT_TRUE(lane.finished());
    const LaneAdmit step = lane.admit(round);
    EXPECT_TRUE(step.finished);
    EXPECT_FALSE(step.paused);
    lane.finish(trace, lattice);
    EXPECT_TRUE(lane.telemetry.drained);
    EXPECT_FALSE(lane.telemetry.logical_failure);
  }
}

}  // namespace
}  // namespace qec
