#include "qecool/online_runner.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace qec {

OnlineStepper::OnlineStepper(const PlanarLattice& lattice,
                             const OnlineConfig& config)
    : engine_(lattice, config.engine),
      clean_(static_cast<std::size_t>(lattice.num_checks())),
      test_fault_(config.engine.test_fault) {
  if (!std::isfinite(config.cycles_per_round)) {
    throw std::invalid_argument(
        "online stepper: cycles_per_round must be finite");
  }
}

bool OnlineStepper::push(const PackedBits& layer) {
  if (paused_) {
    throw std::logic_error(
        "online stepper: push() while paused — resume() first");
  }
  if (overflow_) return false;
  if (!engine_.push_layer(layer)) {
    overflow_ = true;
    return false;
  }
  ++rounds_;
  return true;
}

std::uint64_t OnlineStepper::spend(double cycles) {
  last_spend_pops_ = 0;
  if (overflow_) return 0;
  const int popped_before = engine_.popped_layers();
  std::uint64_t consumed;
  if (cycles <= 0.0) {
    consumed = engine_.run(QecoolEngine::kUnlimited);
  } else {
    // NaN and +inf reach this branch; the carry cannot absorb either.
    if (!(cycles < std::numeric_limits<double>::infinity())) {
      throw std::invalid_argument("online stepper: spend() needs a finite "
                                  "cycle grant");
    }
    // Accumulate the fractional budget: a 1.5-cycle clock grants 1, 2, 1,
    // 2, ... cycles rather than truncating to 1 every round. Cycles the
    // engine leaves unused because it went idle are NOT carried — the
    // hardware clock ticks on regardless.
    carry_ += cycles;
    const auto budget = static_cast<std::uint64_t>(carry_);
    carry_ -= static_cast<double>(budget);
    consumed = engine_.run(budget);
  }
  last_spend_pops_ = engine_.popped_layers() - popped_before;
  return consumed;
}

void OnlineStepper::pause() {
  if (paused_) {
    throw std::logic_error("online stepper: pause() while paused");
  }
  if (overflow_) {
    throw std::logic_error("online stepper: pause() after overflow");
  }
  paused_ = true;
  // Planted bug for the fuzz self-check (docs/fuzzing.md): the pause counts
  // as an accepted round. Only the checkpoint arm pauses, so only it sees
  // rounds_stepped() drift from the baseline.
  if (test_fault_ == QecoolConfig::kFaultPauseRound) ++rounds_;
}

void OnlineStepper::resume() {
  if (!paused_) {
    throw std::logic_error("online stepper: resume() without pause()");
  }
  paused_ = false;
}

OnlineResult OnlineStepper::result() const {
  OnlineResult r;
  r.overflow = overflow_;
  r.drained = !overflow_ && engine_.all_clear();
  r.correction = engine_.correction();
  r.matches = engine_.match_stats();
  r.layer_cycles = engine_.layer_cycles();
  r.total_cycles = engine_.total_cycles();
  return r;
}

OnlineResult run_online(const PlanarLattice& lattice,
                        const SyndromeHistory& history,
                        const OnlineConfig& config) {
  OnlineStepper stepper(lattice, config);
  for (const auto& layer : history.difference) {
    if (!stepper.push(layer)) break;
    stepper.spend(config.cycles_per_round);
  }
  if (!stepper.overflowed()) {
    // Keep the QEC cycle running on clean layers until the queues drain.
    for (int extra = 0; extra < config.max_drain_rounds; ++extra) {
      if (stepper.drained()) break;
      if (!stepper.push_clean()) break;
      stepper.spend(config.cycles_per_round);
    }
  }
  return stepper.result();
}

}  // namespace qec
