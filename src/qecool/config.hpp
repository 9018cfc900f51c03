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

/// Decode-window memoization knobs (src/qecool/decode_cache.hpp, DESIGN.md
/// section 13). The cache is engine-external — QecoolEngine only holds a
/// non-owning pointer — so this config rides along wherever an engine is
/// built. The single-engine owners (run_online, BatchQecoolDecoder)
/// attach a cache when it is enabled; the streaming service ignores it
/// (DESIGN.md section 13.2).
struct DecodeCacheConfig {
  /// Master switch: false reproduces the uncached engine byte for byte
  /// (no lookups, no installs).
  bool enabled = true;

  /// Cache entries; 0 behaves like enabled = false.
  int entries = 4096;

  /// Sparsity gate: windows carrying more than this many defect bits
  /// across all resident layers bypass the cache (no probe, no install —
  /// counted in DecodeCacheStats::bypasses). Dense backlogged windows
  /// are near-unique, so probing them only buys key-build and install
  /// churn; the small windows that actually recur sit well under this
  /// bound. <= 0 disables the gate (every eligible window is probed).
  int max_defects = 6;
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

  /// Decode-window memoization (attached by the engine's owner; the
  /// record_trace path bypasses it because MatchEvent cycle stamps depend
  /// on absolute engine time, which replay does not reproduce).
  DecodeCacheConfig cache;

  /// Test-only fault injection for the fuzz harness's mutation-testing
  /// self-check (src/fuzz, docs/fuzzing.md): a deliberately planted engine
  /// bug that the differential oracles / invariant probe must detect, or
  /// the harness itself is broken. kFaultNone in every production path;
  /// never exposed through spec strings.
  int test_fault = kFaultNone;

  static constexpr int kFaultNone = 0;
  /// Cache replay drops the correction XOR delta — a cache-coherence bug
  /// only the cache-off vs cache-on differential oracle can see, and only
  /// on a window that both recurs (a hit) and carries a correction.
  static constexpr int kFaultCacheReplay = 1;
  /// run() under-reports consumed cycles by one whenever it did work — an
  /// accounting bug the invariant probe's conservation check catches.
  static constexpr int kFaultCycleReport = 2;
};

}  // namespace qec
