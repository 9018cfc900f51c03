// Decode-window memoization: a canonical-key -> decode-outcome cache for
// the QECOOL engine hot path (DESIGN.md section 13).
//
// At physical error rates near threshold the overwhelming majority of
// decode windows across thousands of lanes carry the empty or a tiny
// defect pattern — the same small decode problem re-solved millions of
// times. The engine canonicalizes a window as the sparse list of nonzero
// PackedBits words of its resident Reg layers plus the resumable
// controller position and the cycle budget, hashes the key words with an
// FNV-style mix, and — on a hit — replays the stored outcome (correction
// XOR delta, cleared Reg words, pop cycle offsets, match-statistic
// records) instead of running the token/match scan. On a miss the scan
// runs once and the outcome is installed.
//
// Determinism contract: a hit replays *exactly* what the scan would have
// produced (the full key is compared on lookup, so hash collisions read
// as misses, never as wrong answers), so cached and uncached runs are
// bit-identical in every outcome: correction, cycle accounting, per-layer
// attribution, match statistics, and pop trace events. Only the cache's
// own counters distinguish the two. A cache belongs to one owner that
// drives its engines sequentially (run_online, BatchQecoolDecoder); the
// streaming service attaches none (DESIGN.md section 13.2).
//
// Eviction is CLOCK / second-chance: each slot carries a reference bit
// set on hit and install; the clock hand sweeps, clearing reference bits,
// and replaces the first unreferenced slot. Capacity 0 disables the
// cache (every lookup misses, installs are dropped).
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "qecool/config.hpp"

namespace qec {

/// One engine's view of its cache: the engine counts its own lookups, so
/// the counters stay meaningful when engines share a cache.
struct DecodeCacheStats {
  std::uint64_t hits = 0;        ///< window replayed from the cache
  std::uint64_t misses = 0;      ///< scan ran; an install followed
  std::uint64_t installs = 0;    ///< outcomes written into the cache
  std::uint64_t evictions = 0;   ///< installs that displaced a live entry
  std::uint64_t zero_rounds = 0; ///< all-clear fast path, no hash/lookup
  std::uint64_t zero_pushes = 0; ///< all-zero pushed layers (word copy skipped)
  std::uint64_t bypasses = 0;    ///< windows denser than max_defects, not probed

  double hit_rate() const {
    const std::uint64_t probes = hits + misses;
    return probes ? static_cast<double>(hits) / static_cast<double>(probes)
                  : 0.0;
  }

  void merge(const DecodeCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    installs += other.installs;
    evictions += other.evictions;
    zero_rounds += other.zero_rounds;
    zero_pushes += other.zero_pushes;
    bypasses += other.bypasses;
  }
};

/// The memoized result of one QecoolEngine::run(budget) call, in
/// replayable form. Everything is relative (XOR deltas, cycle offsets
/// from run start) so one entry serves any lane at any absolute time.
struct DecodeOutcome {
  std::uint64_t consumed = 0;  ///< cycles the run spent

  // Controller position after the run.
  int m_after = 0;
  int b_after = 0;
  int c_after = 0;
  int row_after = 0;

  /// Reg contents after the run: (tag, word) pairs where tag =
  /// layer * words_per_layer + word index. Replay clears the resident
  /// layers and writes these words back.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> reg_words;

  /// Correction delta: (word index, XOR mask) pairs applied on replay.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> corr_words;

  /// Cycle offset from run start of every layer pop, in pop order —
  /// replay reconstructs per-layer cycle attribution and kPop events.
  std::vector<std::uint64_t> pop_offsets;

  /// Match-statistic records, one per match: kind in the top two bits
  /// (0 = pair, 1 = self, 2 = boundary), recorded dt below.
  std::vector<std::uint32_t> match_records;
};

/// FNV-1a-style mix over the canonical key words with a splitmix64
/// finalizer. Collisions only cost a miss (DecodeCache compares the full
/// key), so word-at-a-time mixing is plenty.
inline std::uint64_t hash_key_words(const std::uint64_t* words,
                                    std::size_t count, std::uint64_t seed) {
  std::uint64_t h = seed ^ (0xcbf29ce484222325ULL + count);
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// One bounded window->outcome map. Not thread-safe by design: its owner
/// drives the engines sharing it sequentially, so the hot path takes no
/// locks.
class DecodeCache {
 public:
  /// `capacity` entries; 0 disables (lookup always misses, install drops).
  explicit DecodeCache(int capacity);

  /// Returns the stored outcome when `key` is present, else nullptr. A
  /// hash match with a different key (collision) is a miss. The returned
  /// pointer is valid until the next install().
  const DecodeOutcome* lookup(std::uint64_t hash,
                              const std::vector<std::uint64_t>& key);

  /// Installs (or, after a collision, replaces) the outcome for `key`.
  /// Returns true when a live entry with a *different* key was displaced
  /// (CLOCK eviction or collision takeover). Takes the outcome by
  /// reference and copy-assigns so the victim slot's vector capacity is
  /// reused — steady-state installs allocate nothing.
  bool install(std::uint64_t hash, const std::vector<std::uint64_t>& key,
               const DecodeOutcome& value);

  int capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }

  /// Test hook: AND-masks every hash before use, forcing collisions so
  /// the full-key compare path is exercised deterministically.
  void set_hash_mask(std::uint64_t mask) { hash_mask_ = mask; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> key;
    DecodeOutcome value;
    bool referenced = false;  ///< CLOCK second-chance bit
  };

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Probe position holding `hash`, or the first empty position of its
  /// chain. The table is open-addressing with linear probing (power-of-2
  /// size >= 2x capacity, so a free position always exists): one or two
  /// warm cache lines per probe, no modulo, no node allocation — the
  /// hot-path cost an std::unordered_map index was measured to dominate.
  std::size_t probe(std::uint64_t hash) const;
  /// Unlinks `hash` with the standard linear-probe backward shift, so
  /// later chains stay findable without tombstones.
  void unlink(std::uint64_t hash);

  int capacity_ = 0;
  std::uint64_t hash_mask_ = ~std::uint64_t{0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> table_;  ///< slot indices (kEmpty = free)
  /// Slot hashes mirrored at table_ positions, so probe chains walk one
  /// contiguous array instead of touching each candidate's (cold, ~200
  /// byte) Slot — most lookups are misses and now stay out of slots_
  /// entirely. hashes_[i] is meaningful only where table_[i] != kEmpty.
  std::vector<std::uint64_t> hashes_;
  std::uint64_t table_mask_ = 0;
  std::size_t hand_ = 0;  ///< CLOCK sweep position
};

/// Parses a cache spec: "" (defaults), "off" / "none", or "on" / "clock"
/// optionally followed by ":entries=N,max_defects=M". Throws
/// std::invalid_argument naming the offending key on unknown options and
/// on values outside [0, INT_MAX].
DecodeCacheConfig parse_decode_cache_spec(std::string_view spec);

}  // namespace qec
