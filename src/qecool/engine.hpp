// The QECOOL decoding engine: a cycle-level behavioural model of the
// hardware of Section IV executing Algorithm 1.
//
// One engine models the Unit array of a single logical qubit / error sector:
// a d x (d-1) grid of Units (one per check), a Row Master per row, one
// shared Boundary Unit per rough edge, and the Controller that scans tokens
// row-major with an escalating hop-limit C.
//
// Faithfulness notes (see DESIGN.md section 6 for rationale):
//  - Reg entries hold *difference* syndromes pushed in measurement order.
//  - A token granted to a Unit with Reg[b] = 1 makes it the sink; every
//    other Unit whose earliest set Reg bit at depth t >= b exists answers
//    with a spike whose arrival time is (Manhattan distance) + (t - b);
//    the sink itself competes with a pure-vertical candidate at t - b; the
//    Boundary Unit answers at its hop distance, half a cycle late when
//    deprioritized. The earliest arrival within the timeout C wins; ties
//    resolve by the race-logic port priority W > E > N > S.
//  - The winning spike's path (vertical to the sink's row, then horizontal)
//    is retraced by the Syndrome signal, flipping those data qubits into the
//    accumulated correction; the matched Reg bits are cleared.
//  - After each full (C, b) grid pass the Controller pops the base layer if
//    it is clean everywhere (SHIFTREG) and restarts at C = 1.
//
// Datapath representation: each Reg depth slot is one PackedBits layer (64
// Units per word), mirroring the SFQ shift registers — occupancy scans
// (all_clear, row gating, thv eligibility) are word-parallel, and layer
// pops are O(depth) moves instead of O(units x depth) byte shuffles. The
// spike search expands the sink's hop ball level by level in arrival
// order and stops at the first level with a hit, so its cost scales with
// the hop limit, not with the defect load. The accumulated correction is
// packed too. The cycle accounting and match selection are
// bit-identical to the byte-per-bit implementation: the winning arrival
// level holds the same candidates and the same deterministic comparator
// picks the winner.
//
// The engine is resumable: run(budget) consumes at most `budget` cycles and
// can be continued later, which is how the on-line runner models a decoder
// clocked at f while measurements arrive every 1 us.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "qecool/config.hpp"
#include "qecool/decode_cache.hpp"
#include "surface_code/packed_bits.hpp"
#include "surface_code/pauli_frame.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {

class EngineProbe;  // qecool/probe.hpp — invariant hook for the fuzz build

namespace obs {
class Track;  // obs/trace.hpp — the engine never includes the obs layer
}

/// One matching event, recorded when QecoolConfig::record_trace is set.
struct MatchEvent {
  enum class Kind : std::uint8_t { Pair, Self, Boundary } kind = Kind::Pair;
  int sink_row = 0;
  int sink_col = 0;
  int base_depth = 0;   ///< b at match time
  int source_row = 0;   ///< == sink for Self/Boundary
  int source_col = 0;
  int source_depth = 0;
  int hop_limit = 0;    ///< C at match time
  std::uint64_t cycle = 0;  ///< engine cycle counter at match time
};

class QecoolEngine {
 public:
  QecoolEngine(const PlanarLattice& lattice, const QecoolConfig& config);

  /// Appends one difference-syndrome layer to every Unit's Reg. Returns
  /// false when the Reg queues are full (buffer overflow — the failure mode
  /// of Fig 7); the layer is dropped in that case. Throws
  /// std::invalid_argument when the layer size is not num_checks(). One
  /// word copy per 64 Units.
  bool push_layer(const PackedBits& difference_layer);

  /// Executes controller work for at most `budget` cycles (use kUnlimited
  /// to run until there is nothing left to do). Returns cycles consumed.
  /// The engine idles — consuming nothing — when no stored layer is
  /// eligible under thv or all Regs are clean.
  std::uint64_t run(std::uint64_t budget);

  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  /// True when every Reg bit is clear.
  bool all_clear() const;

  /// Stored layers currently in the Reg queues.
  int stored_layers() const { return m_; }

  /// Byte-per-bit copy of the accumulated data-qubit correction from all
  /// Syndrome signals so far (cold-path bridge for scoring and tests).
  BitVec correction() const { return correction_.to_bits(); }

  /// Total working cycles since construction.
  std::uint64_t total_cycles() const { return cycles_; }

  /// Working cycles attributed to each popped layer, in pop order
  /// (Table III's per-layer execution cycles).
  const std::vector<std::uint64_t>& layer_cycles() const {
    return layer_cycles_;
  }

  const MatchStats& match_stats() const { return stats_; }

  /// Number of layers popped so far.
  int popped_layers() const { return static_cast<int>(layer_cycles_.size()); }

  /// Test hook: reads Reg[depth] of the Unit at (row, col).
  bool reg_bit(int row, int col, int depth) const;

  /// Match-event trace; empty unless QecoolConfig::record_trace is set.
  const std::vector<MatchEvent>& trace() const { return trace_; }

  /// Observability hook (src/obs): when set, every popped layer emits a
  /// kPop event (payload = the layer's attributed cycles) onto `track`.
  /// The track's current round is maintained by the caller; disabled
  /// tracing costs the pop path one branch.
  void set_obs_track(obs::Track* track) { obs_track_ = track; }

  /// Invariant hook (qecool/probe.hpp): when set, every push,
  /// pop, and run() fires the probe. Null disables; a disabled probe
  /// costs each site one branch, following the obs hook precedent.
  void set_probe(EngineProbe* probe) { probe_ = probe; }

  /// The resolved maximum hop limit (config nlimit, or the automatic
  /// 2(d-1) + reg_depth bound) — the invariant probe's range check.
  int hop_limit_bound() const { return nlimit_; }

  /// The all-zero fast-path counters (zero_rounds, zero_pushes) in the
  /// export schema of the removed decode cache; its hit/miss/install/
  /// eviction/bypass fields stay 0 (decode_cache.hpp).
  const DecodeCacheStats& cache_stats() const { return cache_stats_; }

 private:
  struct Candidate {
    // Sort key: arrival doubled so the boundary half-cycle penalty stays
    // integral, then port priority, then depth/row/col for determinism.
    std::int64_t arrival2 = 0;
    int port = 0;
    int t = 0;
    int row = 0;
    int col = 0;
    enum class Kind : std::uint8_t { Unit, Self, Boundary } kind = Kind::Unit;
    bool operator<(const Candidate& other) const;
  };

  int unit_index(int row, int col) const {
    return row * cols_ + col;
  }

  /// First row at or after `from` with a bit in any resident layer;
  /// rows_ when the rest of the pass is clean.
  int next_occupied_row(int from) const;
  bool base_layer_clear() const;
  /// The winning spike of a requestSpike() from the sink at hop limit C =
  /// `hop_limit`, or nullopt on timeout. O(min(C, boundary distance)^3)
  /// bit tests, independent of the defect load.
  std::optional<Candidate> best_candidate(int sink_row, int sink_col,
                                          int base, int hop_limit) const;

  /// Token + sink handling for one Unit; returns cycles spent.
  std::uint64_t process_unit(int row, int col);
  /// Pops the base layer; records per-layer cycles.
  void pop_layer();
  /// True if any base layer is eligible for decoding under thv.
  bool has_eligible_base() const;

  /// The token/match scan loop.
  std::uint64_t run_scan(std::uint64_t budget);
  /// Analytic emulation of run_scan when every resident layer is clear:
  /// bulk row skips and pops, identical charges, no per-word Reg scans.
  std::uint64_t run_all_clear(std::uint64_t budget);
  /// The planted test faults of QecoolConfig::test_fault, applied to
  /// run()'s reported cycles (fuzz self-check only).
  std::uint64_t apply_test_fault(std::uint64_t consumed) const;

  const PlanarLattice& lattice_;
  QecoolConfig config_;
  int rows_ = 0;
  int cols_ = 0;
  int reg_capacity_ = 0;
  int nlimit_ = 0;
  /// Reg queues, one packed layer per depth slot; slots at or past m_ are
  /// always all-zero (pushes land at m_, pops shift the deeper layers
  /// down one slot and clear the vacated one).
  std::vector<PackedBits> reg_;
  int m_ = 0;                      // stored layers
  PackedBits correction_;
  std::vector<int> path_scratch_;  ///< match-path qubits (reused, no alloc)

  // Resumable controller position.
  int c_ = 1;    // current hop limit (1..nlimit_)
  int b_ = 0;    // current base depth
  int row_ = 0;  // next row to scan in the current pass

  obs::Track* obs_track_ = nullptr;  ///< kPop sink; null = tracing off
  EngineProbe* probe_ = nullptr;     ///< invariant hook; null = disabled
  std::uint64_t cycles_ = 0;
  std::uint64_t last_pop_cycles_ = 0;
  std::vector<std::uint64_t> layer_cycles_;
  MatchStats stats_;
  std::vector<MatchEvent> trace_;
  DecodeCacheStats cache_stats_;  ///< all-zero fast-path counters
};

}  // namespace qec
