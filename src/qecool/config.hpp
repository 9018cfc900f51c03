// Configuration knobs of the QECOOL engine (Algorithm 1 parameters plus the
// hardware cycle-cost model of Section IV / Table III).
#pragma once

#include <cstdint>

namespace qec {

/// Cycle costs of the primitive hardware actions. Defaults model each
/// signal hop / register action as one clock cycle, matching the
/// architecture's distributed single-cycle design; Table III's character
/// (avg ~ d at low p, heavy tail in d and p) follows from these.
struct CycleModel {
  std::uint32_t row_skip = 1;       ///< Row Master skipping an all-clean row.
  std::uint32_t token_hop = 1;      ///< Token advancing by one Unit.
  std::uint32_t request = 1;        ///< Sink broadcasting requestSpike().
  std::uint32_t correct = 1;        ///< Correction signal to the data qubit.
  std::uint32_t pass_overhead = 1;  ///< sendResetFlag / per-pass bookkeeping.
  std::uint32_t pop = 1;            ///< SHIFTREG broadcast.
};

struct QecoolConfig {
  /// Reg queue capacity per Unit. The paper's hardware uses 7 (Section
  /// IV-A: "at least three measurement values ... 7-bit with some margin");
  /// batch-QECOOL sets it to the full number of stored rounds.
  int reg_depth = 7;

  /// Vertical threshold: a base layer b is decoded only once m - b > thv
  /// (Algorithm 1, Controller line 9). -1 reproduces batch behaviour
  /// (decode any stored layer); the paper selects 3 for on-line QEC.
  int thv = 3;

  /// Maximum hop-limit for spike propagation; the Controller escalates the
  /// timeout C from 1 to nlimit and restarts (Algorithm 1, outer loop).
  /// <= 0 selects an automatic bound large enough to reach any defect or
  /// boundary: 2(d-1) + reg_depth.
  int nlimit = 0;

  /// Paper footnote 1: Boundary Unit spikes are delayed slightly so that a
  /// normal Unit at the same distance wins the race.
  bool deprioritize_boundary = true;

  /// Ablation knob (not in the paper): start every pass at the maximal hop
  /// limit instead of escalating C from 1. This removes the
  /// closest-pairs-first property of the Controller and degrades accuracy
  /// (bench/table4_decoder_comparison).
  bool start_at_max_hop = false;

  /// Record a per-match event trace (QecoolEngine::trace()) for debugging
  /// and analysis. Off by default: traces grow with the defect count.
  bool record_trace = false;

  CycleModel cycles;

  /// Inert residue of the removed decode-window cache (DESIGN.md section
  /// 13), kept only so perfbench/ still builds: nothing in src/ reads it.
  /// The follow-up benchmark change removes it with DecodeCache and
  /// OnlineStepper::set_decode_cache.
  struct {
    bool enabled = false;
    int entries = 0;
  } cache;

  /// Test-only fault injection for the fuzz harness's mutation-testing
  /// self-check (src/fuzz, docs/fuzzing.md): a deliberately planted engine
  /// bug that the differential oracles / invariant probe must detect, or
  /// the harness itself is broken. kFaultNone in every production path;
  /// never exposed through spec strings.
  int test_fault = kFaultNone;

  static constexpr int kFaultNone = 0;
  /// OnlineStepper::checkpoint()'s snapshot drops the deepest resident
  /// layer from its stored-layer count — a cold-path bug only the
  /// checkpoint arm's snapshot-vs-engine comparison can see.
  static constexpr int kFaultCheckpointSnapshot = 1;
  /// run() under-reports consumed cycles by one whenever it did work — an
  /// accounting bug the invariant probe's conservation check catches.
  static constexpr int kFaultCycleReport = 2;
};

}  // namespace qec
