// Fast-path counters of the QECOOL engine, in the schema the decode-window
// cache once exported (DESIGN.md section 13 records the cache's removal).
//
// The engine keeps two all-zero shortcuts that never needed a cache: a run
// over all-clean resident layers is charged analytically (zero_rounds), and
// an all-zero pushed layer claims its Reg slot without a word copy
// (zero_pushes). The hit/miss/install/eviction/bypass counters always read
// 0; they stay so the cache CSV, the `cache_*` metrics columns and the
// lane-scaling exports keep their column set.
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

/// Inert residue of the removed cache, kept only so perfbench/ still
/// builds; nothing in src/ uses it. The follow-up benchmark change that
/// drops perfbench's cache branch removes it together with
/// OnlineStepper::set_decode_cache and QecoolConfig::cache.
class DecodeCache {
 public:
  explicit DecodeCache(int) {}
};

}  // namespace qec
