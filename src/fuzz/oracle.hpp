// Differential-oracle harness: runs every lane of a QTRC trace through the
// on-line engine several ways that are contractually bit-identical, and
// reports any disagreement (DESIGN.md section 14, docs/fuzzing.md).
//
// Oracles (each arm must match the baseline lane run bit for bit:
// correction, overflow/drained, cycle accounting, per-layer attribution,
// match statistics, per-round pop sequence):
//   checkpoint  a pause()/resume() pair with no intervening activity is a
//               perfect no-op (the admission-control contract of
//               section 9).
//   bitops      the configured popcount/ctz backend agrees with the
//               portable SWAR reference on every trace word (plus edge
//               words) — the backend-equivalence contract of section 11.
//   invariant   EngineProbe structural checks on every push/pop/run: Reg
//               occupancy <= reg_depth, rejects only when full, no pop
//               without a prior push, consumed <= budget, the cycle
//               counter advances by exactly what run() reports, and the
//               resumable controller position stays in range.
#pragma once

#include <string>
#include <vector>

#include "qecool/online_runner.hpp"
#include "stream/trace.hpp"

namespace qec::fuzz {

/// One oracle disagreement or invariant violation.
struct Divergence {
  std::string oracle;  ///< "checkpoint", "bitops", "invariant"
  int lane = -1;       ///< -1 for trace-level oracles (bitops)
  std::string detail;
};

struct OracleConfig {
  /// Engine knobs, per-round cycle budget (<= 0 unconstrained), and drain
  /// bound shared by every arm.
  OnlineConfig online;

  /// Test-only planted bug (QecoolConfig::kFault*), plumbed into every
  /// arm's engine config — the mutation-testing self-check that proves
  /// the oracles can detect what they claim to detect.
  int fault = 0;

  OracleConfig() { online.max_drain_rounds = 256; }
};

struct OracleReport {
  std::vector<Divergence> divergences;
  int lanes = 0;

  bool ok() const { return divergences.empty(); }
};

/// Runs the full oracle battery over `trace`. Deterministic: a pure
/// function of (trace, config). Lanes run sequentially in lane order.
OracleReport run_oracles(const SyndromeTrace& trace,
                         const OracleConfig& config);

/// One-line summary of a report ("ok" or "3 divergences:
/// checkpoint@lane2 ..."), for tool output.
std::string summarize_report(const OracleReport& report);

}  // namespace qec::fuzz
