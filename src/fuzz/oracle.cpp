#include "fuzz/oracle.hpp"

#include <sstream>
#include <utility>

#include "qecool/probe.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec::fuzz {
namespace {

/// Occupancy at which the checkpoint arm inserts a pause()/resume() no-op
/// pair before the round's push, so the pause lands on input-dependent
/// Reg states.
constexpr int kCheckpointMinDepth = 2;

/// Everything a lane run produces that the arms must agree on.
struct LaneOutcome {
  bool overflow = false;
  bool drained = false;
  int rounds_stepped = 0;
  int popped_layers = 0;
  BitVec correction;
  std::uint64_t total_cycles = 0;
  std::vector<std::uint64_t> layer_cycles;
  std::uint64_t pair_matches = 0;
  std::uint64_t self_matches = 0;
  std::uint64_t boundary_matches = 0;
  std::vector<std::uint64_t> vertical_hist;
  /// Layers popped by each round's spend(), real rounds then drain rounds
  /// — the arms must agree on *when* work happened, not just the totals.
  std::vector<int> pops_per_round;
};

/// First field (if any) where two outcomes disagree, as a human-readable
/// detail string. Empty when identical.
std::string describe_mismatch(const LaneOutcome& a, const LaneOutcome& b) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto lhs, auto rhs) {
    if (lhs != rhs && out.tellp() == 0) {
      out << name << ": " << lhs << " vs " << rhs;
    }
  };
  field("overflow", a.overflow, b.overflow);
  field("drained", a.drained, b.drained);
  field("rounds_stepped", a.rounds_stepped, b.rounds_stepped);
  field("popped_layers", a.popped_layers, b.popped_layers);
  field("total_cycles", a.total_cycles, b.total_cycles);
  field("pair_matches", a.pair_matches, b.pair_matches);
  field("self_matches", a.self_matches, b.self_matches);
  field("boundary_matches", a.boundary_matches, b.boundary_matches);
  if (out.tellp() == 0 && a.correction != b.correction) {
    int weight_a = 0, weight_b = 0;
    for (const auto bit : a.correction) weight_a += bit ? 1 : 0;
    for (const auto bit : b.correction) weight_b += bit ? 1 : 0;
    out << "correction differs (weight " << weight_a << " vs " << weight_b
        << ")";
  }
  if (out.tellp() == 0 && a.layer_cycles != b.layer_cycles) {
    out << "per-layer cycle attribution differs";
  }
  if (out.tellp() == 0 && a.vertical_hist != b.vertical_hist) {
    out << "vertical match histogram differs";
  }
  if (out.tellp() == 0 && a.pops_per_round != b.pops_per_round) {
    out << "per-round pop sequence differs";
  }
  return out.str();
}

/// EngineProbe asserting the structural invariants. Violations accumulate
/// as strings; the harness drains them into the report after each lane
/// run.
class InvariantProbe : public EngineProbe {
 public:
  InvariantProbe(int reg_depth, int nlimit, int rows)
      : reg_depth_(reg_depth), nlimit_(nlimit), rows_(rows) {}

  void on_push(bool accepted, int stored_layers, int reg_depth) override {
    if (stored_layers > reg_depth) {
      fail("push left occupancy " + std::to_string(stored_layers) +
           " > reg_depth " + std::to_string(reg_depth));
    }
    if (!accepted && stored_layers != reg_depth) {
      fail("push rejected at occupancy " + std::to_string(stored_layers) +
           " with reg_depth " + std::to_string(reg_depth));
    }
    if (accepted) ++pushes_;
  }

  void on_pop(int stored_layers) override {
    if (stored_layers < 1) fail("pop with no stored layer");
    ++pops_;
    if (pops_ > pushes_) {
      fail("pop #" + std::to_string(pops_) + " without a prior push (" +
           std::to_string(pushes_) + " pushed)");
    }
  }

  void on_run(std::uint64_t budget, std::uint64_t consumed,
              std::uint64_t total_cycles, int stored_layers, int base_depth,
              int hop_limit, int row) override {
    // The budget loop checks `spent < budget` before each action and the
    // final action's charge may overshoot (engine.cpp run_scan), so the
    // sound invariant is consumed <= budget + one worst-case iteration:
    // request + timeout wait (<= nlimit) + a match commit (two path
    // retraces + wait, each <= nlimit) + per-pass overhead, pop, and a
    // bulk row skip (< rows). Anything past that is a runaway loop.
    const std::uint64_t slack =
        4u * static_cast<std::uint64_t>(nlimit_) +
        static_cast<std::uint64_t>(rows_) + 16;
    if (budget != QecoolEngine::kUnlimited && consumed > budget + slack) {
      fail("run consumed " + std::to_string(consumed) + " > budget " +
           std::to_string(budget) + " + slack " + std::to_string(slack));
    }
    if (total_cycles - last_total_ != consumed) {
      fail("cycle counter advanced " +
           std::to_string(total_cycles - last_total_) + " but run reported " +
           std::to_string(consumed));
    }
    last_total_ = total_cycles;
    if (stored_layers < 0 || stored_layers > reg_depth_) {
      fail("post-run occupancy " + std::to_string(stored_layers) +
           " out of [0, " + std::to_string(reg_depth_) + "]");
    }
    if (base_depth < 0 || (stored_layers > 0 && base_depth >= stored_layers) ||
        (stored_layers == 0 && base_depth != 0)) {
      fail("post-run base depth " + std::to_string(base_depth) +
           " out of range for occupancy " + std::to_string(stored_layers));
    }
    if (hop_limit < 1 || hop_limit > nlimit_) {
      fail("post-run hop limit " + std::to_string(hop_limit) +
           " out of [1, " + std::to_string(nlimit_) + "]");
    }
    if (row < 0 || row > rows_) {
      fail("post-run row " + std::to_string(row) + " out of [0, " +
           std::to_string(rows_) + "]");
    }
  }

  std::vector<std::string> take_violations() {
    return std::exchange(violations_, {});
  }

 private:
  void fail(std::string what) {
    // Bound the noise: a broken engine trips the same invariant every
    // round; the first few occurrences carry all the signal.
    if (violations_.size() < 8) violations_.push_back(std::move(what));
  }

  int reg_depth_;
  int nlimit_;
  int rows_;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t last_total_ = 0;
  std::vector<std::string> violations_;
};

enum class Arm { kBaseline, kCheckpoint };

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kBaseline:
      return "baseline";
    case Arm::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

struct LaneRun {
  LaneOutcome outcome;
  std::vector<std::string> violations;  ///< invariant probe findings
};

/// Streams one lane of `trace` through a fresh stepper: push + spend per
/// round (mirroring run_online / the streaming service), then clean drain
/// rounds up to the bound.
LaneRun run_lane(const PlanarLattice& lattice, const SyndromeTrace& trace,
                 int lane, const OracleConfig& config, Arm arm) {
  OnlineConfig online = config.online;
  online.engine.test_fault = config.fault;
  LaneRun run;
  OnlineStepper stepper(lattice, online);
  InvariantProbe probe(online.engine.reg_depth,
                       stepper.engine().hop_limit_bound(),
                       lattice.check_rows());
  stepper.set_probe(&probe);

  const auto maybe_checkpoint = [&] {
    if (arm != Arm::kCheckpoint || stepper.overflowed()) return;
    if (stepper.engine().stored_layers() < kCheckpointMinDepth) return;
    stepper.pause();
    stepper.resume();
  };

  for (int round = 0; round < trace.rounds(); ++round) {
    maybe_checkpoint();
    if (!stepper.push(trace.layer(lane, round))) {
      break;  // Reg overflow: terminal, the lane is dead
    }
    stepper.spend(online.cycles_per_round);
    run.outcome.pops_per_round.push_back(stepper.last_spend_pops());
  }
  if (!stepper.overflowed()) {
    for (int extra = 0; extra < online.max_drain_rounds; ++extra) {
      if (stepper.drained()) break;
      maybe_checkpoint();
      if (!stepper.push_clean()) break;
      stepper.spend(online.cycles_per_round);
      run.outcome.pops_per_round.push_back(stepper.last_spend_pops());
    }
  }

  const OnlineResult result = stepper.result();
  run.outcome.overflow = result.overflow;
  run.outcome.drained = result.drained;
  run.outcome.rounds_stepped = stepper.rounds_stepped();
  run.outcome.popped_layers = stepper.engine().popped_layers();
  run.outcome.correction = result.correction;
  run.outcome.total_cycles = result.total_cycles;
  run.outcome.layer_cycles = result.layer_cycles;
  run.outcome.pair_matches = result.matches.pair_matches;
  run.outcome.self_matches = result.matches.self_matches;
  run.outcome.boundary_matches = result.matches.boundary_matches;
  run.outcome.vertical_hist = result.matches.vertical_hist;
  run.violations = probe.take_violations();
  return run;
}

void report_violations(OracleReport& report, const LaneRun& run, Arm arm,
                       int lane) {
  for (const std::string& v : run.violations) {
    report.divergences.push_back(
        {"invariant", lane, std::string(arm_name(arm)) + " arm: " + v});
  }
}

void check_bitops(const SyndromeTrace& trace, OracleReport& report) {
  const auto check_word = [&report](std::uint64_t w) {
    if (qec_popcount64(w) != qec_popcount64_swar(w)) {
      std::ostringstream out;
      out << "popcount backend disagrees with SWAR reference on 0x"
          << std::hex << w;
      report.divergences.push_back({"bitops", -1, out.str()});
      return;
    }
    if (w != 0 && qec_countr_zero64(w) != qec_countr_zero64_swar(w)) {
      std::ostringstream out;
      out << "countr_zero backend disagrees with SWAR reference on 0x"
          << std::hex << w;
      report.divergences.push_back({"bitops", -1, out.str()});
    }
  };
  // Edge words first, then every word the trace actually carries.
  check_word(0);
  check_word(~std::uint64_t{0});
  check_word(0x5555555555555555ULL);
  check_word(0xAAAAAAAAAAAAAAAAULL);
  for (int b = 0; b < 64; ++b) check_word(std::uint64_t{1} << b);
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (int round = 0; round < trace.rounds(); ++round) {
      const PackedBits& layer = trace.layer(lane, round);
      for (std::size_t w = 0; w < layer.num_words(); ++w) {
        check_word(layer.word(w));
        if (report.divergences.size() > 8) return;  // enough signal
      }
    }
  }
}

}  // namespace

OracleReport run_oracles(const SyndromeTrace& trace,
                         const OracleConfig& config) {
  OracleReport report;
  report.lanes = trace.lanes();
  const PlanarLattice lattice(static_cast<int>(trace.header().distance));

  check_bitops(trace, report);

  for (int lane = 0; lane < trace.lanes(); ++lane) {
    const LaneRun baseline =
        run_lane(lattice, trace, lane, config, Arm::kBaseline);
    report_violations(report, baseline, Arm::kBaseline, lane);

    const LaneRun checkpoint =
        run_lane(lattice, trace, lane, config, Arm::kCheckpoint);
    report_violations(report, checkpoint, Arm::kCheckpoint, lane);
    const std::string detail =
        describe_mismatch(baseline.outcome, checkpoint.outcome);
    if (!detail.empty()) {
      report.divergences.push_back({"checkpoint", lane, detail});
    }
    if (report.divergences.size() >= 32) break;  // plenty to minimize on
  }
  return report;
}

std::string summarize_report(const OracleReport& report) {
  if (report.ok()) return "ok";
  std::ostringstream out;
  out << report.divergences.size() << " divergence(s):";
  for (std::size_t i = 0; i < report.divergences.size() && i < 3; ++i) {
    const Divergence& d = report.divergences[i];
    out << " [" << d.oracle;
    if (d.lane >= 0) out << "@lane" << d.lane;
    out << "] " << d.detail << ";";
  }
  return out.str();
}

}  // namespace qec::fuzz
