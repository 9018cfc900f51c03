// Residue of the removed decode-window cache (DESIGN.md section 13), kept
// only because perfbench/ still reads it. The benchmark change that drops
// perfbench's cache metrics deletes this header.
//
// Only zero_rounds and zero_pushes ever move: the engine's two all-zero
// fast paths (QecoolEngine::zero_rounds(), zero_pushes()). The
// hit/miss/install/eviction/bypass counters always read 0.
#pragma once

#include <cstdint>

namespace qec {

struct DecodeCacheStats {
  std::uint64_t hits = 0;        ///< always 0 (no cache)
  std::uint64_t misses = 0;      ///< always 0 (no cache)
  std::uint64_t installs = 0;    ///< always 0 (no cache)
  std::uint64_t evictions = 0;   ///< always 0 (no cache)
  std::uint64_t zero_rounds = 0; ///< all-clear fast path of run()
  std::uint64_t zero_pushes = 0; ///< all-zero pushed layers (word copy skipped)
  std::uint64_t bypasses = 0;    ///< always 0 (no cache)

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

/// Inert: nothing in src/ uses it. It goes with
/// OnlineStepper::set_decode_cache and QecoolConfig::cache.
class DecodeCache {
 public:
  explicit DecodeCache(int) {}
};

}  // namespace qec
