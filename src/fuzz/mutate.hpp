// Defect-pattern mutations over valid QTRC traces: the fuzzer's input
// generator (docs/fuzzing.md section 2 is the taxonomy). Every operator
// edits the in-memory payload only — header dimensions and provenance are
// fixed — so a mutated trace re-serializes through SyndromeTrace::save(),
// which re-derives the FNV-1a checksum, and the hardened loader accepts it
// by construction. The engine, not the loader, is the target.
//
// The operators are shaped by how the engine fails, not by byte entropy:
//   kBitFlips        sparse random defect flips (generic exploration)
//   kBurst           a spatial cluster of defects in one round (a burst
//                    error; stresses dense-window matching)
//   kRowStreak       the same check repeating across consecutive rounds
//                    (a measurement-error streak; stresses time-like
//                    matching and Reg occupancy growth)
//   kColStreak       a line of adjacent checks in one round (a spatial
//                    chain; stresses path retracing)
//   kWindowCluster   defects packed around multiples of the Reg depth and
//                    thv gate (window-boundary alignment; stresses the
//                    pop/eligibility edge cases)
//   kClearRegion     zeroes a random span of rounds in one lane (escapes
//                    saturated states; gives shrinking a head start)
//   kSplice          rounds [cut, end) replaced by another corpus parent's
//                    (crossover; only between same-geometry parents)
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "stream/trace.hpp"

namespace qec::fuzz {

enum class MutationOp : std::uint8_t {
  kBitFlips = 0,
  kBurst,
  kRowStreak,
  kColStreak,
  kWindowCluster,
  kClearRegion,
  kSplice,  // only via splice(); mutate() never picks it
};

/// Engine-shape hints the window-boundary operator aligns against.
struct MutatorConfig {
  int reg_depth = 7;
  int thv = 3;
};

class TraceMutator {
 public:
  explicit TraceMutator(std::uint64_t seed, MutatorConfig config = {})
      : rng_(seed), config_(config) {}

  /// Applies one randomly chosen operator (never kSplice) in place.
  /// Returns the operator used.
  MutationOp mutate(SyndromeTrace& trace);

  /// Applies a specific operator in place.
  void apply(SyndromeTrace& trace, MutationOp op);

  /// Crossover: replaces rounds [cut, end) of `trace` with `donor`'s.
  /// Both traces must share (distance, lanes, rounds) — callers pick a
  /// same-geometry donor from the corpus.
  void splice(SyndromeTrace& trace, const SyndromeTrace& donor);

  Xoshiro256ss& rng() { return rng_; }

 private:
  /// Flips one check bit of (lane, round) through the set_layer API.
  void flip(SyndromeTrace& trace, int lane, int round, std::size_t check);

  Xoshiro256ss rng_;
  MutatorConfig config_;
};

}  // namespace qec::fuzz
