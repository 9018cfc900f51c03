// On-line QECOOL (Section III-B / V): the decoder is clocked at `frequency`
// while a new measurement layer arrives every measurement interval (1 us in
// the paper). Between consecutive layers the engine may spend at most
// frequency * interval cycles; if the 7-entry Reg queues overflow because
// decoding falls behind, the run fails (the effect visible in Fig 7a/7b).
#pragma once

#include <cstdint>

#include "noise/phenomenological.hpp"
#include "qecool/config.hpp"
#include "qecool/engine.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {

struct OnlineConfig {
  QecoolConfig engine;  ///< thv = 3, reg_depth = 7 by default (the paper's).

  /// Decoder cycles available between consecutive measurement layers:
  /// frequency [Hz] * measurement interval [s]. Fractional budgets (a
  /// 1.5 MHz clock grants 1.5 cycles per 1 us round) accumulate across
  /// rounds instead of truncating, so sub-cycle clocks are modelled
  /// honestly. <= 0 means unconstrained (used for Table III cycle
  /// statistics).
  double cycles_per_round = 0.0;

  /// After the last real layer the experiment keeps pushing clean layers
  /// (QEC never stops in hardware) until the queues drain; bail out after
  /// this many extra layers.
  int max_drain_rounds = 1000;
};

/// Convenience: cycles available per 1 us measurement interval at `hz`.
/// Returns the exact (possibly fractional) budget; OnlineStepper carries
/// the fractional remainder across rounds, so e.g. 500 kHz grants one
/// cycle every second round instead of truncating to "unconstrained".
constexpr double cycles_per_microsecond(double hz) { return hz * 1e-6; }

struct OnlineResult {
  bool overflow = false;  ///< Reg overflow — the trial counts as a failure.
  bool drained = false;   ///< All defects consumed by the end of the run.
  BitVec correction;
  MatchStats matches;
  /// Working cycles attributed to each popped layer (Table III).
  std::vector<std::uint64_t> layer_cycles;
  std::uint64_t total_cycles = 0;

  /// A trial is successful only if the decoder kept up and drained.
  bool failed_operationally() const { return overflow || !drained; }
};

/// Incremental per-round driver of one on-line engine: push a layer, spend
/// the round's cycle budget, repeat. run_online() is a loop over this; the
/// streaming decode service (src/stream) holds one stepper per lane and
/// advances them round-by-round so many logical qubits progress together.
///
/// Push and spend are separate operations: a lane served by a shared
/// engine pool receives a full, partial, or zero budget each round, so the
/// service pushes the arriving layer unconditionally and grants cycles
/// only when the scheduler assigns the lane an engine. A dedicated engine
/// (run_online) spends config.cycles_per_round after every push.
///
/// pause()/resume() freeze and thaw the lane's logical clock for the pool
/// admission controller: a paused stepper rejects push() (no new
/// measurement layers are admitted — calling it is a logic error, not an
/// overflow) but still accepts spend(), so the backlog drains. The patch
/// so far stays readable through engine().correction(). A pause()/resume()
/// pair with no intervening activity is a perfect no-op: all subsequent
/// behaviour is identical to never having paused.
class OnlineStepper {
 public:
  /// Throws std::invalid_argument when config.cycles_per_round is NaN or
  /// infinite (a budget the cross-round carry cannot represent).
  OnlineStepper(const PlanarLattice& lattice, const OnlineConfig& config);

  /// Pushes one difference layer without spending any decode cycles.
  /// Returns false when the Reg queues overflow — a terminal state; later
  /// calls are no-ops returning false. Throws std::logic_error while
  /// paused: a frozen logical clock produces no layers. Throws
  /// std::invalid_argument when the layer size is not num_checks().
  bool push(const PackedBits& layer);

  /// Pushes an all-zero layer (the drain phase after the last real round).
  bool push_clean() { return push(clean_); }

  /// Grants `cycles` decode cycles (<= 0: unconstrained, matching the
  /// OnlineConfig::cycles_per_round convention). Fractional grants
  /// accumulate in the cross-round carry and only the integer part is
  /// spent, so a lane granted 0.5 cycles twice runs one cycle on the
  /// second grant. Rounds with no grant leave the carry untouched — the
  /// deficit shows up as queue depth, not as banked cycles. Returns the
  /// cycles the engine actually consumed (it may idle below the budget);
  /// no-op returning 0 after overflow. Throws std::invalid_argument for a
  /// NaN or +inf grant (the fractional carry cannot hold either).
  std::uint64_t spend(double cycles);

  /// Layers the engine fully decoded (popped) during the most recent
  /// spend() call — the dequeue events the streaming QoS layer timestamps
  /// for sojourn latency (src/stream/qos.hpp). 0 before any spend.
  int last_spend_pops() const { return last_spend_pops_; }

  /// Freezes the logical clock (admission pause). While paused, push()
  /// throws and spend() keeps draining the backlog. Throws
  /// std::logic_error when already paused or after overflow (the lane is
  /// dead; there is no clock left to freeze).
  void pause();

  /// Thaws a paused stepper: the lane's logical clock runs again and
  /// push() is accepted. Throws std::logic_error when not paused.
  void resume();

  bool paused() const { return paused_; }

  bool overflowed() const { return overflow_; }

  /// Observability hook (src/obs): forwards the lane's event track to the
  /// engine so popped layers emit kPop events. Null disables tracing.
  void set_obs_track(obs::Track* track) { engine_.set_obs_track(track); }

  /// Inert residue of the removed decode-window cache, kept only so
  /// perfbench/ still builds (see DecodeCache). Does nothing.
  void set_decode_cache(DecodeCache*) {}

  /// Invariant hook (qecool/probe.hpp): forwards the probe to the
  /// engine. The fuzz oracle harness attaches one per lane. Null disables.
  void set_probe(EngineProbe* probe) { engine_.set_probe(probe); }

  /// True when the engine consumed everything: every Reg bit clear and no
  /// stored layers left to pop.
  bool drained() const {
    return !overflow_ && engine_.all_clear() && engine_.stored_layers() == 0;
  }

  /// Rounds the engine accepted so far (real + clean; a layer rejected at
  /// overflow does not count — it was dropped).
  int rounds_stepped() const { return rounds_; }

  const QecoolEngine& engine() const { return engine_; }

  /// Snapshot of the outcome so far, in run_online()'s result shape.
  OnlineResult result() const;

 private:
  QecoolEngine engine_;
  PackedBits clean_;
  double carry_ = 0.0;      ///< fractional budget carried across rounds.
  bool overflow_ = false;
  bool paused_ = false;     ///< logical clock frozen by admission control.
  int rounds_ = 0;
  int last_spend_pops_ = 0;  ///< layers popped by the most recent spend().
  int test_fault_ = QecoolConfig::kFaultNone;  ///< fuzz self-check only
};

/// Streams `history` through an on-line engine and returns the outcome.
OnlineResult run_online(const PlanarLattice& lattice,
                        const SyndromeHistory& history,
                        const OnlineConfig& config);

}  // namespace qec
