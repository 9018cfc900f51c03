// Tests for the decode-window memoization cache (qecool/decode_cache):
// unit-level CLOCK eviction and collision safety, bit-exact equivalence
// of cached and uncached decoding across a p x d grid and across lanes
// sharing one cache, the all-zero fast-path counters the streaming
// service still reports without a cache, and the spec grammar.
#include "qecool/decode_cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "decoder/registry.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

DecodeOutcome outcome_with(std::uint64_t consumed) {
  DecodeOutcome outcome;
  outcome.consumed = consumed;
  return outcome;
}

// ---------------------------------------------------------------------------
// Unit level: the bounded CLOCK map itself.

TEST(DecodeCacheUnit, HitRequiresFullKeyMatch) {
  DecodeCache cache(8);
  const std::vector<std::uint64_t> key{1, 2, 3};
  EXPECT_EQ(cache.lookup(42, key), nullptr);
  EXPECT_FALSE(cache.install(42, key, outcome_with(7)));
  const DecodeOutcome* hit = cache.lookup(42, key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->consumed, 7u);
  // Same hash, different key: a collision must read as a miss.
  const std::vector<std::uint64_t> other{1, 2, 4};
  EXPECT_EQ(cache.lookup(42, other), nullptr);
}

TEST(DecodeCacheUnit, CapacityOneEvictsThePreviousKey) {
  DecodeCache cache(1);
  const std::vector<std::uint64_t> k1{1};
  const std::vector<std::uint64_t> k2{2};
  EXPECT_FALSE(cache.install(10, k1, outcome_with(1)));
  EXPECT_NE(cache.lookup(10, k1), nullptr);
  EXPECT_TRUE(cache.install(20, k2, outcome_with(2)));  // displaced k1
  EXPECT_EQ(cache.lookup(10, k1), nullptr);
  ASSERT_NE(cache.lookup(20, k2), nullptr);
  EXPECT_EQ(cache.lookup(20, k2)->consumed, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCacheUnit, CapacityZeroDisablesTheCache) {
  DecodeCache cache(0);
  const std::vector<std::uint64_t> key{1};
  EXPECT_FALSE(cache.install(10, key, outcome_with(1)));
  EXPECT_EQ(cache.lookup(10, key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 0);
}

TEST(DecodeCacheUnit, ClockEvictionKeepsExactlyCapacityEntries) {
  DecodeCache cache(2);
  const std::vector<std::uint64_t> k1{1}, k2{2}, k3{3};
  EXPECT_FALSE(cache.install(10, k1, outcome_with(1)));
  EXPECT_FALSE(cache.install(20, k2, outcome_with(2)));
  EXPECT_TRUE(cache.install(30, k3, outcome_with(3)));  // one of k1/k2 out
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.lookup(30, k3), nullptr);
  const int survivors = (cache.lookup(10, k1) != nullptr ? 1 : 0) +
                        (cache.lookup(20, k2) != nullptr ? 1 : 0);
  EXPECT_EQ(survivors, 1);
}

TEST(DecodeCacheUnit, ForcedCollisionTakeoverStaysCorrect) {
  DecodeCache cache(8);
  cache.set_hash_mask(0);  // every hash becomes 0: maximal collisions
  const std::vector<std::uint64_t> k1{1}, k2{2};
  EXPECT_FALSE(cache.install(10, k1, outcome_with(1)));
  EXPECT_EQ(cache.lookup(20, k2), nullptr);  // collision reads as miss
  EXPECT_TRUE(cache.install(20, k2, outcome_with(2)));  // takeover
  EXPECT_EQ(cache.lookup(10, k1), nullptr);
  ASSERT_NE(cache.lookup(20, k2), nullptr);
  EXPECT_EQ(cache.lookup(20, k2)->consumed, 2u);
}

// ---------------------------------------------------------------------------
// Engine level: cached and uncached runs are bit-identical.

void expect_same_matches(const MatchStats& a, const MatchStats& b) {
  EXPECT_EQ(a.pair_matches, b.pair_matches);
  EXPECT_EQ(a.self_matches, b.self_matches);
  EXPECT_EQ(a.boundary_matches, b.boundary_matches);
  EXPECT_EQ(a.vertical_ge3, b.vertical_ge3);
  EXPECT_EQ(a.vertical_hist, b.vertical_hist);
}

TEST(DecodeCacheEngine, ForcedCollisionsNeverChangeTheDecode) {
  // mask 0 funnels every window into one bucket: almost every probe is a
  // collision, every install a takeover — the worst case for the full-key
  // compare, which must keep outcomes bit-identical to the uncached scan.
  const PlanarLattice lat(7);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 10;
  Xoshiro256ss rng(2718);
  const auto h = sample_history(lat, {0.03, 0.03, 8}, rng);

  QecoolEngine plain(lat, config);
  QecoolEngine cached(lat, config);
  DecodeCache cache(16);
  cache.set_hash_mask(0);
  cached.set_decode_cache(&cache);

  for (const auto& layer : h.difference) {
    plain.push_layer(layer);
    cached.push_layer(layer);
    // Small budgets so runs suspend and resume mid-decode: the cache key
    // must cover the controller position, not just the window bits.
    for (int i = 0; i < 64 && !plain.all_clear(); ++i) plain.run(23);
    for (int i = 0; i < 64 && !cached.all_clear(); ++i) cached.run(23);
  }
  plain.run(QecoolEngine::kUnlimited);
  cached.run(QecoolEngine::kUnlimited);

  EXPECT_EQ(plain.correction(), cached.correction());
  EXPECT_EQ(plain.total_cycles(), cached.total_cycles());
  expect_same_matches(plain.match_stats(), cached.match_stats());
  EXPECT_GT(cached.cache_stats().misses, 0u);
}

TEST(DecodeCacheEngine, RepeatedWindowHitsTheCache) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 4;
  QecoolEngine engine(lat, config);
  DecodeCache cache(16);
  engine.set_decode_cache(&cache);

  BitVec layer(static_cast<std::size_t>(lat.num_checks()), 0);
  layer[static_cast<std::size_t>(lat.check_index(2, 2))] = 1;
  engine.push_layer(layer);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  engine.push_layer(layer);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.cache_stats().hits, 1u)
      << "the second identical window must replay from the cache";
}

TEST(DecodeCacheOnline, OnOffIdenticalAcrossPAndD) {
  for (const int d : {3, 5}) {
    const PlanarLattice lat(d);
    for (const double p : {0.0, 0.002, 0.01, 0.04}) {
      Xoshiro256ss rng(static_cast<std::uint64_t>(d * 1000) +
                       static_cast<std::uint64_t>(p * 1e6));
      const auto h = sample_history(lat, {p, p, d + 2}, rng);

      OnlineConfig off;
      off.cycles_per_round = 40;
      off.engine.cache.enabled = false;
      OnlineConfig on = off;
      on.engine.cache.enabled = true;

      const OnlineResult a = run_online(lat, h, off);
      const OnlineResult b = run_online(lat, h, on);
      EXPECT_EQ(a.overflow, b.overflow) << "d=" << d << " p=" << p;
      EXPECT_EQ(a.drained, b.drained) << "d=" << d << " p=" << p;
      EXPECT_EQ(a.correction, b.correction) << "d=" << d << " p=" << p;
      EXPECT_EQ(a.total_cycles, b.total_cycles) << "d=" << d << " p=" << p;
      EXPECT_EQ(a.layer_cycles, b.layer_cycles) << "d=" << d << " p=" << p;
      expect_same_matches(a.matches, b.matches);
    }
  }
}

TEST(DecodeCacheOnline, SingleEntrySharedCacheStaysExact) {
  // One entry shared by several lanes' steppers, driven in lane order
  // round by round: constant eviction pressure and maximal cross-lane
  // interleaving. Every lane's outcome must still equal its uncached run.
  // Lanes come in pairs with one history, so the second of a pair replays
  // the window its neighbour just installed.
  const PlanarLattice lat(5);
  OnlineConfig online;
  online.cycles_per_round = 300;
  constexpr int kLanes = 6;
  std::vector<SyndromeHistory> histories;
  for (int lane = 0; lane < kLanes; ++lane) {
    Xoshiro256ss rng(static_cast<std::uint64_t>(11 + lane / 2));
    histories.push_back(sample_history(lat, {0.02, 0.02, 16}, rng));
  }

  DecodeCache shared(1);
  std::vector<OnlineStepper> plain;
  std::vector<OnlineStepper> cached;
  plain.reserve(kLanes);
  cached.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    plain.emplace_back(lat, online);
    cached.emplace_back(lat, online);
    cached.back().set_decode_cache(&shared);
  }
  const auto round = [&](std::vector<OnlineStepper>& steppers, int lane,
                         const BitVec* layer) {
    OnlineStepper& s = steppers[static_cast<std::size_t>(lane)];
    if (s.overflowed()) return;
    if (layer ? s.push(*layer) : s.push_clean()) {
      s.spend(online.cycles_per_round);
    }
  };
  const std::size_t layers = histories.front().difference.size();
  for (std::size_t r = 0; r < layers + 64; ++r) {
    for (int lane = 0; lane < kLanes; ++lane) {
      const auto& diff = histories[static_cast<std::size_t>(lane)].difference;
      const BitVec* layer = r < diff.size() ? &diff[r] : nullptr;
      round(plain, lane, layer);
      round(cached, lane, layer);
    }
  }

  DecodeCacheStats stats;
  for (int lane = 0; lane < kLanes; ++lane) {
    const OnlineResult a = plain[static_cast<std::size_t>(lane)].result();
    const OnlineResult b = cached[static_cast<std::size_t>(lane)].result();
    EXPECT_EQ(a.overflow, b.overflow) << "lane " << lane;
    EXPECT_EQ(a.drained, b.drained) << "lane " << lane;
    EXPECT_EQ(a.correction, b.correction) << "lane " << lane;
    EXPECT_EQ(a.total_cycles, b.total_cycles) << "lane " << lane;
    EXPECT_EQ(a.layer_cycles, b.layer_cycles) << "lane " << lane;
    expect_same_matches(a.matches, b.matches);
    stats.merge(cached[static_cast<std::size_t>(lane)].engine().cache_stats());
  }
  EXPECT_GT(stats.hits, 0u) << "paired lanes must share windows";
  EXPECT_GT(stats.evictions, 0u) << "one entry must churn";
}

// ---------------------------------------------------------------------------
// Stream level: the service attaches no cache; the fast path still counts.

TEST(DecodeCacheStream, CleanStreamRidesTheZeroFastPathWithoutACache) {
  StreamConfig config;
  config.lanes = 8;
  config.distance = 5;
  config.p = 0.0;
  config.rounds = 16;
  config.seed = 11;
  config.cycles_per_round = 300;
  const auto outcome = run_stream(config);
  EXPECT_EQ(outcome.telemetry.cache, "off");
  const DecodeCacheStats stats = outcome.telemetry.aggregate().cache;
  EXPECT_GT(stats.zero_rounds, 0u);
  EXPECT_GT(stats.zero_pushes, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.installs, 0u);
  EXPECT_EQ(outcome.failed_lanes, 0);
}

// ---------------------------------------------------------------------------
// Spec grammar and error messages.

TEST(DecodeCacheSpec, Parses) {
  const DecodeCacheConfig off = parse_decode_cache_spec("off");
  EXPECT_FALSE(off.enabled);

  const DecodeCacheConfig on = parse_decode_cache_spec("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.entries, 4096);

  const DecodeCacheConfig tuned =
      parse_decode_cache_spec("clock:entries=128,max_defects=9");
  EXPECT_TRUE(tuned.enabled);
  EXPECT_EQ(tuned.entries, 128);
  EXPECT_EQ(tuned.max_defects, 9);

  // max_defects=0 turns the sparsity gate off: every window is probed.
  EXPECT_EQ(parse_decode_cache_spec("on:max_defects=0").max_defects, 0);
}

TEST(DecodeCacheSpec, ErrorsNameTheOptionFamily) {
  EXPECT_THROW(parse_decode_cache_spec("lru"), std::invalid_argument);
  try {
    parse_decode_cache_spec("clock:banana=1");
    FAIL() << "unknown cache option must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("entries, max_defects"),
              std::string::npos)
        << e.what();
  }
  // `shards` is not a cache option.
  EXPECT_THROW(parse_decode_cache_spec("clock:shards=2"),
               std::invalid_argument);
  // Values outside int are rejected, naming the key, never wrapped.
  for (const char* spec :
       {"clock:entries=4294967297", "clock:max_defects=99999999999999999999"}) {
    try {
      parse_decode_cache_spec(spec);
      ADD_FAILURE() << spec << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("option '"), std::string::npos)
          << e.what();
    }
  }
  try {
    online_engine_config("qecool:cache_banana=1");
    FAIL() << "unknown engine option must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cache options"), std::string::npos)
        << e.what();
  }
}

TEST(DecodeCacheSpec, EngineSpecCarriesCacheOptions) {
  const QecoolConfig config =
      online_engine_config("qecool:cache=clock,cache_entries=32");
  EXPECT_TRUE(config.cache.enabled);
  EXPECT_EQ(config.cache.entries, 32);
  const QecoolConfig off = online_engine_config("qecool:cache=off");
  EXPECT_FALSE(off.cache.enabled);
}

}  // namespace
}  // namespace qec
