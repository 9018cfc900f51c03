// One lane of the streaming decode service: a logical qubit's on-line
// QECOOL engine and the step its Unit array takes once per measurement
// interval — admit(), the admission decision before a round, and run(),
// the round itself — each returning a record the service folds into its
// lane block's tally. A step touches only its lane and the lane's own
// event track (no scheduler, registry or tracer), so a lane gives the
// same outcome in any block on any thread (DESIGN.md section 7.1).
#pragma once

#include <cstdint>

#include "decoder/decoder.hpp"
#include "obs/trace.hpp"
#include "qecool/online_runner.hpp"
#include "stream/admission.hpp"
#include "stream/qos.hpp"
#include "stream/telemetry.hpp"
#include "stream/trace.hpp"

namespace qec {

/// admit()'s record: the lane's state for the round's scheduling view and
/// the admission transition it made, if any.
struct LaneAdmit {
  int depth = 0;          ///< stored layers entering the round
  bool finished = false;  ///< Lane::finished() after the step
  bool paused = false;    ///< frozen for the round
  bool pause = false;     ///< this step froze the lane
  bool resume = false;    ///< this step re-admitted the lane
};

/// run()'s record: what one lane did in one round.
struct LaneRound {
  bool paused = false;      ///< spent the round frozen by admission
  bool real = false;        ///< live, and tried to push a trace layer
  bool pushed = false;      ///< its layer (trace or clean) was accepted
  bool overflowed = false;  ///< the push overflowed (terminal)
  bool starved = false;     ///< live and backlogged, but not granted
  bool served = false;      ///< spent an engine grant
  int pops = 0;             ///< layers the grant fully decoded
  int depth = 0;            ///< stored layers after the round
  std::uint64_t cycles = 0;  ///< cycles the grant consumed
};

struct Lane {
  /// Lane `id` of a trace of `trace_rounds` stored rounds; `track` is its
  /// event track, null when tracing is off.
  Lane(const PlanarLattice& lattice, const OnlineConfig& online, int id,
       const AdmissionConfig& admission, int trace_rounds,
       obs::Track* track = nullptr)
      : stepper(lattice, online),
        qos(online.engine.reg_depth),
        admission(admission),
        grant_cycles(online.cycles_per_round),
        trace_rounds(trace_rounds),
        track(track) {
    telemetry.lane = id;
    telemetry.depth_hist.assign(
        static_cast<std::size_t>(online.engine.reg_depth) + 1, 0);
    if (admission.codel()) {
      codel = CodelControl(admission.target, admission.interval);
    }
    stepper.set_obs_track(track);  // engine pop events
    codel.set_obs_track(track);    // CoDel arm/disarm events
  }

  /// Done for good: overflowed, or drained with the whole trace consumed.
  /// A paused lane is never finished (its clock is frozen mid-stream).
  bool finished() const {
    if (stepper.overflowed()) return true;
    return !stepper.paused() && cursor >= trace_rounds && stepper.drained();
  }

  /// The admission step before global round `round`, for an unfinished
  /// lane under pause/codel admission: a paused lane re-admits at the
  /// low-water mark, an admitted lane at the high-water mark pauses instead
  /// of pushing toward overflow. Its events use emit_at: the round has not
  /// set the track's round cursor yet.
  LaneAdmit admit(std::int64_t round) {
    LaneAdmit out;
    out.depth = stepper.engine().stored_layers();
    const auto depth = static_cast<std::uint64_t>(out.depth);
    if (admission.pause() && !finished()) {
      if (stepper.paused()) {
        // Codel also re-admits once the head sojourn is back under target.
        out.resume = out.depth <= admission.low_water ||
                     (admission.codel() &&
                      codel.should_resume(qos.head_age(round), out.depth));
        if (out.resume) {
          stepper.resume();
          ++telemetry.resumes;
          if (admission.codel()) codel.on_resume(round);
          if (track) track->emit_at(round, obs::EventKind::kResume, depth);
        }
      } else {
        // The CoDel law observes every admitted round (arming and disarming
        // its deadline); the high-water mark stays as the overflow backstop.
        const bool by_codel =
            admission.codel() &&
            codel.should_pause(round, qos.head_age(round), out.depth);
        out.pause = by_codel || out.depth >= admission.high_water;
        if (out.pause) {
          stepper.pause();
          ++telemetry.pauses;
          if (track) {
            track->emit_at(round, obs::EventKind::kPause, depth,
                           by_codel ? obs::kPauseByCodel : obs::kPauseByDepth);
          }
        }
      }
    }
    out.finished = finished();
    out.paused = stepper.paused();
    return out;
  }

  /// Runs global round `round`. A live lane pushes trace layer `cursor`
  /// while it is inside the trace and a clean layer after that; with an
  /// engine `granted` the lane spends one grant's cycles (a paused lane
  /// only drains). Popped trace layers' sojourns are also observed into
  /// `sojourn` when given. Call only while !finished().
  LaneRound run(std::int64_t round, bool granted, const SyndromeTrace& trace,
                obs::LogHistogram* sojourn = nullptr) {
    LaneRound out;
    const QecoolEngine& engine = stepper.engine();
    const auto emit_depth = [&](obs::EventKind kind, std::uint16_t arg = 0) {
      if (track) {
        track->emit(kind, static_cast<std::uint64_t>(engine.stored_layers()),
                    arg);
      }
    };
    const auto serve = [&] {
      out.served = true;
      out.cycles = stepper.spend(grant_cycles);
      out.pops = stepper.last_spend_pops();
      qos.on_pops(out.pops, round, sojourn);
      ++telemetry.served_rounds;
      if (track) track->emit(obs::EventKind::kSpend, out.cycles);
    };
    if (track) track->set_round(round);
    out.paused = stepper.paused();
    if (out.paused) {
      ++telemetry.paused_rounds;
      if (granted) serve();
    } else {
      // Backlog before this round's layer lands: the starvation test.
      const bool backlog = engine.stored_layers() > 0;
      out.real = cursor < trace_rounds;
      // trace.layer() hands out PackedBits: a word copy into the Reg.
      out.pushed = out.real
                       ? stepper.push(trace.layer(telemetry.lane, cursor))
                       : stepper.push_clean();
      if (!out.pushed) {
        out.overflowed = true;
        emit_depth(obs::EventKind::kOverflow);
      } else {
        ++(out.real ? telemetry.rounds_streamed : telemetry.drain_rounds);
        if (out.real) ++cursor;
        emit_depth(obs::EventKind::kPush, out.real ? 1 : 0);
        qos.on_push(round, out.real);
        if (granted) {
          serve();
        } else if (backlog) {
          out.starved = true;
          ++telemetry.starved_rounds;
          emit_depth(obs::EventKind::kStarve);
        }
      }
    }
    out.depth = engine.stored_layers();
    auto& hist = telemetry.depth_hist;
    if (static_cast<std::size_t>(out.depth) < hist.size()) {
      ++hist[static_cast<std::size_t>(out.depth)];
    }
    return out;
  }

  /// The run-end step: overflow and drained flags, the count tables the
  /// exports read, and a drained lane's logical scoring.
  void finish(const SyndromeTrace& trace, const PlanarLattice& lattice) {
    const QecoolEngine& engine = stepper.engine();
    LaneTelemetry& t = telemetry;
    t.overflow = stepper.overflowed();
    // A lane still paused at the round bound never consumed the rest of
    // the trace, so it is not drained (nor scored), even with an empty queue.
    t.drained = !t.overflow && engine.all_clear() &&
                cursor >= trace_rounds && !stepper.paused();
    // At the lane's last executed round (its track cursor).
    if (t.drained && track) track->emit(obs::EventKind::kDrained);
    t.popped_layers = engine.popped_layers();
    t.total_cycles = engine.total_cycles();
    t.layer_cycles = ValueCounts(engine.layer_cycles());
    t.sojourn_rounds = qos.table();
    t.matches = engine.match_stats();
    t.cache.zero_rounds = engine.zero_rounds();
    t.cache.zero_pushes = engine.zero_pushes();
    if (t.drained) {
      SyndromeHistory truth;
      truth.final_error = trace.final_error(t.lane);
      DecodeResult decode;
      decode.correction = engine.correction();
      t.logical_failure = logical_failure(lattice, truth, decode);
    }
  }

  OnlineStepper stepper;
  LaneTelemetry telemetry;
  LatencyTracker qos;  ///< sojourn clock: push rounds, pop samples
  CodelControl codel;  ///< CoDel control law state (admission=codel)
  AdmissionConfig admission;
  double grant_cycles = 0.0;  ///< cycles one engine grant spends
  int trace_rounds = 0;
  /// Next trace layer to consume: the global round, unless admission
  /// paused the lane (a paused lane's cursor freezes).
  int cursor = 0;
  obs::Track* track = nullptr;  ///< written only by this lane's steps
};

}  // namespace qec
