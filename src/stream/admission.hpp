// Power-aware admission control for the shared decoder-engine pool.
//
// The paper's headline constraint is the ~1 W 4-K-stage budget (Table V,
// src/sfq/budget.hpp): the pool size K is ultimately a *watts* decision,
// not a free integer. This header ties the two ends together:
//
//  - PoolPowerModel maps a pool spec (K engines, code distance, decoder
//    clock) to dissipated watts through the ERSFQ power model of
//    src/sfq/{power,budget} — the same per-Unit numbers behind Table V —
//    and answers the inverse question: how many engines fit a budget.
//
//  - AdmissionConfig selects what happens to a lane whose Reg queues fill
//    because the pool is over-subscribed. "overflow" (the default) keeps
//    the PR 3 behaviour byte for byte: the next push overflows and the
//    lane dies. "pause" is graceful load shedding: instead of pushing
//    into a full queue, the admission controller freezes the lane's
//    logical clock (OnlineStepper::pause() — no further layers are
//    admitted; the patch so far stays in the engine), lets the backlog
//    drain through whatever engine service the lane receives, and
//    re-admits it (OnlineStepper::resume()) once its queue depth falls
//    to the low-water mark. Paused lanes are non-schedulable for
//    state-aware policies (ScheduleView::paused); engines the policy
//    leaves idle are granted to paused lanes, deepest queue first, so a
//    paused lane always eventually drains and resumes.
//
// Both knobs ride StreamConfig: admission = "overflow" | "pause" |
// "pause:high=6,low=2" (parsed exactly like decoder and policy specs),
// and budget_w > 0 caps the pool at the largest K whose model watts fit
// the budget. Everything here is deterministic: a lane's admission
// decision reads only its own state and the round number (the service
// runs it in the lane's block), so it depends only on (trace, config),
// never on thread count. See DESIGN.md section 9.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qec {

/// What the streaming service does when a lane's Reg queues fill up.
struct AdmissionConfig {
  enum class Mode {
    kOverflow,  ///< PR 3 behaviour: push into a full queue, lane dies.
    kPause,     ///< freeze the lane's logical clock until the queue drains.
    kCodel,     ///< freeze on sustained sojourn latency (CoDel control law).
  };

  Mode mode = Mode::kOverflow;

  /// Pause a lane whose pre-round queue depth is >= high_water. In kPause
  /// mode 0 selects the automatic mark: the engine's reg_depth, i.e.
  /// pause exactly when the next push would overflow — pause mode then
  /// strictly dominates overflow mode. In kCodel mode this is always the
  /// overflow backstop (reg_depth) behind the latency control law.
  int high_water = 0;

  /// Re-admit a paused lane once its queue depth is <= low_water. -1
  /// selects the automatic mark: reg_depth / 2. Must resolve to
  /// 0 <= low_water < high_water <= reg_depth. kCodel always uses the
  /// automatic mark, as the drain backstop behind the sojourn-based
  /// resume (the engine cannot pop below thv resident layers, so a depth
  /// mark must thaw a stalled drain).
  int low_water = -1;

  /// kCodel: sojourn target in logical rounds — pause once the lane's
  /// minimum head sojourn stays >= target for a whole interval; re-admit
  /// when the head sojourn falls below it. 0 selects the automatic
  /// target: max(1, reg_depth / 2).
  int target = 0;

  /// kCodel: control interval in logical rounds (the sustained-congestion
  /// window; consecutive pauses shrink it by 1/sqrt(count), computed in
  /// Q0.32 fixed point — see codel_rec_inv_sqrt in stream/qos.hpp). 0
  /// selects the automatic interval: 2 * reg_depth.
  int interval = 0;

  /// Admission-controlled modes: the service runs the pause/drain/resume
  /// machinery (per-lane trace cursors, pause()/resume()).
  bool pause() const { return mode != Mode::kOverflow; }
  /// Pause decisions come from the CoDel latency law, not depth marks.
  bool codel() const { return mode == Mode::kCodel; }
};

/// Parses an admission spec — "overflow", "pause", "pause:high=H,low=L",
/// "codel", or "codel:target=T,interval=I" — through the same option
/// machinery as decoder and scheduler-policy specs. Throws
/// std::invalid_argument for unknown modes, malformed option lists,
/// options the mode does not understand ("overflow" takes none, "pause"
/// takes high/low, "codel" takes target/interval; every offending key is
/// named), or marks that cannot order (low >= high).
AdmissionConfig parse_admission_spec(std::string_view spec);

/// Resolves the automatic watermarks (pause) or target/interval (codel)
/// against the engine's actual reg_depth and validates
/// 0 <= low < high <= reg_depth. Throws std::invalid_argument when the
/// resolved marks are out of range.
AdmissionConfig resolve_admission(const AdmissionConfig& config,
                                  int reg_depth);

/// Watts drawn by a pool of K streaming decoder engines. One engine
/// serves one lane (logical qubit) at a time, so its hardware is one
/// logical qubit's worth of QECOOL Units — the Table V deployment at
/// this code distance — clocked at freq_hz in ERSFQ technology.
struct PoolPowerModel {
  int engines = 1;        ///< pool size K
  int distance = 5;       ///< code distance of the served lattice
  double freq_hz = 0.0;   ///< decoder clock (cycles_per_round / 1 us)

  /// ERSFQ watts of one engine's Unit array (Table V per-qubit power).
  double watts_per_engine() const;

  /// Total pool dissipation: engines * watts_per_engine().
  double watts() const;

  /// Does the whole pool fit a 4-K-stage budget?
  bool fits(double budget_w) const { return watts() <= budget_w; }

  /// Largest K whose pool fits `budget_w` at this distance and clock
  /// (0 when not even one engine fits). The inverse of watts().
  static int max_engines(double budget_w, int distance, double freq_hz);
};

}  // namespace qec
