// Tests for the QECOOL engine: Reg queue mechanics, token/spike matching
// semantics, cycle accounting, and the batch decoder built on top.
#include "qecool/engine.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/online_runner.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

BitVec layer_with(const PlanarLattice& lat, std::vector<CheckCoord> coords) {
  BitVec layer(static_cast<std::size_t>(lat.num_checks()), 0);
  for (const auto& c : coords) {
    layer[static_cast<std::size_t>(lat.check_index(c.row, c.col))] = 1;
  }
  return layer;
}

QecoolConfig batch_config(int reg_depth) {
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = reg_depth;
  return config;
}

TEST(QecoolEngine, PushPopMechanics) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(3));
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_TRUE(engine.push_layer(clean));
  EXPECT_FALSE(engine.push_layer(clean)) << "4th push must overflow depth 3";
  EXPECT_EQ(engine.stored_layers(), 3);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.stored_layers(), 0);
  EXPECT_EQ(engine.popped_layers(), 3);
  EXPECT_TRUE(engine.all_clear());
}

TEST(QecoolEngine, CleanLayerCostsAboutOnePass) {
  // Row master skips every clean row: cost ~ rows + pass overhead + pop.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(BitVec(static_cast<std::size_t>(lat.num_checks()), 0));
  engine.run(QecoolEngine::kUnlimited);
  ASSERT_EQ(engine.layer_cycles().size(), 1u);
  EXPECT_EQ(engine.layer_cycles()[0], 5u + 1u + 1u);
}

TEST(QecoolEngine, AdjacentPairMatchesAtHopLimitOne) {
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_EQ(engine.match_stats().boundary_matches, 0u);
  // The correction is exactly the data qubit between the two checks.
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 2))] = 1;
  EXPECT_EQ(engine.correction(), expected);
}

TEST(QecoolEngine, VerticalPairSelfMatchesWithoutCorrection) {
  // A measurement error: same Unit flagged in consecutive layers.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(2));
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.push_layer(layer_with(lat, {{1, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().self_matches, 1u);
  EXPECT_TRUE(is_zero(engine.correction()));
}

TEST(QecoolEngine, LoneDefectMatchesNearestBoundary) {
  const PlanarLattice lat(5);
  {
    QecoolEngine engine(lat, batch_config(1));
    engine.push_layer(layer_with(lat, {{2, 0}}));  // 1 hop from left wall
    engine.run(QecoolEngine::kUnlimited);
    EXPECT_EQ(engine.match_stats().boundary_matches, 1u);
    BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
    expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 0))] = 1;
    EXPECT_EQ(engine.correction(), expected);
  }
  {
    QecoolEngine engine(lat, batch_config(1));
    engine.push_layer(layer_with(lat, {{2, 3}}));  // 1 hop from right wall
    engine.run(QecoolEngine::kUnlimited);
    BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
    expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 4))] = 1;
    EXPECT_EQ(engine.correction(), expected);
  }
}

TEST(QecoolEngine, UnitBeatsBoundaryAtEqualDistance) {
  // Defects at (2,0) and (2,1): each is 1 hop from the other; (2,0) is also
  // 1 hop from the left wall. Deprioritization makes the pair win.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{2, 0}, {2, 1}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_EQ(engine.match_stats().boundary_matches, 0u);
}

TEST(QecoolEngine, BoundaryWinsWithoutDeprioritization) {
  const PlanarLattice lat(5);
  QecoolConfig config = batch_config(1);
  config.deprioritize_boundary = false;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 0}, {2, 1}}));
  engine.run(QecoolEngine::kUnlimited);
  // Sink (2,0): boundary (West, port rank 0) now ties the unit spike from
  // the East and wins on port priority.
  EXPECT_EQ(engine.match_stats().boundary_matches, 2u);
  EXPECT_EQ(engine.match_stats().pair_matches, 0u);
}

TEST(QecoolEngine, HopLimitEscalationFindsDistantPair) {
  const PlanarLattice lat(9);
  QecoolEngine engine(lat, batch_config(1));
  engine.push_layer(layer_with(lat, {{4, 2}, {4, 5}}));  // distance 3
  engine.run(QecoolEngine::kUnlimited);
  // Each defect is 3 hops from its partner and 3+ hops from the nearest
  // wall; deprioritization breaks the tie for (4,2) (left wall at 3) in
  // favour of the partner.
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  EXPECT_TRUE(engine.all_clear());
}

TEST(QecoolEngine, MixedSpaceTimeMatch) {
  // Defect at (2,1) layer 0 and (2,2) layer 1: arrival = 1 hop + 1 depth.
  const PlanarLattice lat(5);
  QecoolEngine engine(lat, batch_config(2));
  engine.push_layer(layer_with(lat, {{2, 1}}));
  engine.push_layer(layer_with(lat, {{2, 2}}));
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
  ASSERT_GE(engine.match_stats().vertical_hist.size(), 2u);
  EXPECT_EQ(engine.match_stats().vertical_hist[1], 1u);
  // Correction still flips the single spatial edge between the checks.
  BitVec expected(static_cast<std::size_t>(lat.num_data()), 0);
  expected[static_cast<std::size_t>(lat.horizontal_qubit(2, 2))] = 1;
  EXPECT_EQ(engine.correction(), expected);
}

TEST(QecoolEngine, ThvGatesDecoding) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = 3;
  config.reg_depth = 7;
  QecoolEngine engine(lat, config);
  engine.push_layer(layer_with(lat, {{2, 1}, {2, 2}}));
  // Only 1 stored layer: m - b = 1 <= thv, so the engine must idle.
  EXPECT_EQ(engine.run(QecoolEngine::kUnlimited), 0u);
  EXPECT_FALSE(engine.all_clear());
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  engine.push_layer(clean);
  engine.push_layer(clean);
  EXPECT_EQ(engine.run(QecoolEngine::kUnlimited), 0u) << "m=3 still gated";
  engine.push_layer(clean);
  engine.run(QecoolEngine::kUnlimited);  // m=4 > thv: now decodable
  EXPECT_TRUE(engine.all_clear());
  EXPECT_EQ(engine.match_stats().pair_matches, 1u);
}

TEST(QecoolEngine, BudgetedRunsResumeAndMatchUnbudgeted) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(123);
  const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);

  QecoolEngine full(lat, batch_config(h.total_rounds()));
  for (const auto& layer : h.difference) full.push_layer(layer);
  full.run(QecoolEngine::kUnlimited);

  QecoolEngine sliced(lat, batch_config(h.total_rounds()));
  for (const auto& layer : h.difference) sliced.push_layer(layer);
  while (!(sliced.all_clear() && sliced.stored_layers() == 0)) {
    sliced.run(3);  // tiny budget slices
  }
  EXPECT_EQ(sliced.correction(), full.correction());
  EXPECT_EQ(sliced.total_cycles(), full.total_cycles());
  EXPECT_EQ(sliced.match_stats().pair_matches, full.match_stats().pair_matches);
}

TEST(QecoolEngine, CyclesGrowWithDefectLoad) {
  const PlanarLattice lat(9);
  QecoolEngine light(lat, batch_config(1));
  light.push_layer(layer_with(lat, {{0, 0}}));
  light.run(QecoolEngine::kUnlimited);

  QecoolEngine heavy(lat, batch_config(1));
  heavy.push_layer(layer_with(lat, {{0, 0}, {2, 3}, {5, 6}, {8, 1}, {4, 4}}));
  heavy.run(QecoolEngine::kUnlimited);
  EXPECT_GT(heavy.total_cycles(), light.total_cycles());
}

TEST(QecoolEngine, RejectsBadRegDepth) {
  const PlanarLattice lat(3);
  QecoolConfig config;
  config.reg_depth = 0;
  EXPECT_THROW(QecoolEngine(lat, config), std::invalid_argument);
}

// --- Spike-race comparator facets -------------------------------------------
// Hand-built windows around the sink (4,4) of a d = 9 grid (9 x 8 Units;
// the sink is 4 hops from its nearer wall, so the boundary never answers
// at the hop limits used here). Each pins one rule of the race: which
// candidate wins, at which depth it answers, and what a timeout costs.

/// Pushes `layers` (one coordinate list per depth) into a batch engine
/// that records its match trace, then runs it to completion.
QecoolEngine run_window(const PlanarLattice& lat,
                        const std::vector<std::vector<CheckCoord>>& layers,
                        QecoolConfig config) {
  config.thv = -1;
  config.reg_depth = static_cast<int>(layers.size());
  config.record_trace = true;
  QecoolEngine engine(lat, config);
  for (const auto& coords : layers) engine.push_layer(layer_with(lat, coords));
  engine.run(QecoolEngine::kUnlimited);
  return engine;
}

TEST(SpikeRace, EqualArrivalResolvesWestEastNorthSouth) {
  // Sink (4,4) at depth 0; its neighbours sit one layer deeper, so every
  // one of them arrives at C = 2 and only the port priority decides.
  const PlanarLattice lat(9);
  const CheckCoord west{4, 3}, east{4, 5}, north{3, 4}, south{5, 4};
  const std::vector<std::pair<std::vector<CheckCoord>, CheckCoord>> cases = {
      {{west, east, north, south}, west},
      {{east, north, south}, east},
      {{north, south}, north},
      {{south}, south},
  };
  for (const auto& [neighbours, winner] : cases) {
    const auto engine = run_window(lat, {{{4, 4}}, neighbours}, {});
    ASSERT_FALSE(engine.trace().empty());
    const MatchEvent& first = engine.trace().front();
    EXPECT_EQ(first.kind, MatchEvent::Kind::Pair);
    EXPECT_EQ(first.sink_row, 4);
    EXPECT_EQ(first.sink_col, 4);
    EXPECT_EQ(first.hop_limit, 2);
    EXPECT_EQ(first.source_row, winner.row);
    EXPECT_EQ(first.source_col, winner.col);
    EXPECT_EQ(first.source_depth, 1);
  }
}

TEST(SpikeRace, ShallowerDepthWinsOnOnePort) {
  // Both candidates arrive at 2 through the South port: (5,4) one hop
  // away one layer up, (6,4) two hops away at the base depth.
  const PlanarLattice lat(9);
  const auto engine = run_window(lat, {{{4, 4}, {6, 4}}, {{5, 4}}}, {});
  ASSERT_FALSE(engine.trace().empty());
  const MatchEvent& first = engine.trace().front();
  EXPECT_EQ(first.kind, MatchEvent::Kind::Pair);
  EXPECT_EQ(first.sink_row, 4);
  EXPECT_EQ(first.hop_limit, 2);
  EXPECT_EQ(first.source_row, 6);
  EXPECT_EQ(first.source_col, 4);
  EXPECT_EQ(first.source_depth, 0);
}

TEST(SpikeRace, SelfBeatsUnitAtEqualArrival) {
  // The sink's own next-layer bit and its South neighbour both arrive at 1.
  const PlanarLattice lat(9);
  const auto engine = run_window(lat, {{{4, 4}, {5, 4}}, {{4, 4}}}, {});
  ASSERT_FALSE(engine.trace().empty());
  const MatchEvent& first = engine.trace().front();
  EXPECT_EQ(first.kind, MatchEvent::Kind::Self);
  EXPECT_EQ(first.sink_row, 4);
  EXPECT_EQ(first.sink_col, 4);
  EXPECT_EQ(first.source_depth, 1);
  EXPECT_EQ(first.hop_limit, 1);
}

TEST(SpikeRace, UnitAnswersAtItsFirstSetDepth) {
  // (5,4) holds bits at depths 1 and 2. The race starts at C = 4 so the
  // sink sees it before (5,4) self-matches; it must answer from depth 1
  // and keep its depth-2 bit.
  const PlanarLattice lat(9);
  QecoolConfig config;
  config.nlimit = 4;
  config.start_at_max_hop = true;
  const auto engine =
      run_window(lat, {{{4, 4}}, {{5, 4}}, {{5, 4}}}, config);
  ASSERT_GE(engine.trace().size(), 2u);
  const MatchEvent& first = engine.trace()[0];
  EXPECT_EQ(first.kind, MatchEvent::Kind::Pair);
  EXPECT_EQ(first.sink_row, 4);
  EXPECT_EQ(first.source_row, 5);
  EXPECT_EQ(first.source_col, 4);
  EXPECT_EQ(first.source_depth, 1);
  // The depth-2 bit survives and later goes to the wall on its own.
  EXPECT_EQ(engine.trace()[1].kind, MatchEvent::Kind::Boundary);
  EXPECT_EQ(engine.trace()[1].sink_row, 5);
  EXPECT_EQ(engine.trace()[1].sink_col, 4);
}

TEST(SpikeRace, TimeoutChargesRequestPlusHopLimitAndClearsNothing) {
  // Lone sink (4,4); its only partner (8,4) is 4 hops away, as is the
  // wall. Rows 0-3 are skipped (4 cycles), row 4 costs 8 token hops plus
  // the timed-out request: request + C.
  const PlanarLattice lat(9);
  for (int hop_limit = 1; hop_limit <= 3; ++hop_limit) {
    QecoolConfig config = batch_config(1);
    config.nlimit = hop_limit;
    config.start_at_max_hop = true;
    QecoolEngine engine(lat, config);
    engine.push_layer(layer_with(lat, {{4, 4}, {8, 4}}));
    const std::uint64_t consumed = engine.run(5);  // stops after row 4
    EXPECT_EQ(consumed, 4u + 8u + 1u + static_cast<std::uint64_t>(hop_limit))
        << "C = " << hop_limit;
    EXPECT_EQ(engine.match_stats().total(), 0u);
    EXPECT_TRUE(engine.reg_bit(4, 4, 0));
    EXPECT_TRUE(engine.reg_bit(8, 4, 0));
    EXPECT_TRUE(is_zero(engine.correction()));
  }
}

// --- Pinned outputs ---------------------------------------------------------

/// FNV-style fold with a final avalanche per word.
void mix_into(std::uint64_t& digest, std::uint64_t value) {
  digest ^= value;
  digest *= 0x9e3779b97f4a7c15ULL;
  digest ^= digest >> 29;
}

// Every engine output over a grid of geometries, error rates and control
// knobs, at a constrained (37 cycles/round) and an unlimited budget. The
// expected digest was computed once and is never edited: a change to
// match selection, cycle accounting, the correction, or the trace
// changes it.
TEST(QecoolEngineDigest, OutputsPinnedAcrossConfigs) {
  constexpr int kHistories = 200;
  std::uint64_t digest = 0;
  std::uint64_t seed = 0;
  for (const int d : {3, 5, 7, 9, 13}) {
    const PlanarLattice lat(d);
    for (const double p : {0.002, 0.01, 0.03, 0.06}) {
      for (const int thv : {-1, 0, 3}) {
        for (const bool deprioritize : {false, true}) {
          for (const bool max_hop : {false, true}) {
            Xoshiro256ss rng(++seed);
            for (int trial = 0; trial < kHistories; ++trial) {
              const auto h = sample_history(lat, {p, p, d}, rng);
              for (const double budget : {37.0, 0.0}) {
                OnlineConfig config;
                config.cycles_per_round = budget;
                config.engine.thv = thv;
                config.engine.reg_depth = thv < 0 ? h.total_rounds() : 7;
                config.engine.deprioritize_boundary = deprioritize;
                config.engine.start_at_max_hop = max_hop;
                config.engine.record_trace = trial % 7 == 0;
                OnlineStepper stepper(lat, config);
                for (const auto& layer : h.difference) {
                  if (!stepper.push(layer)) break;
                  stepper.spend(budget);
                }
                for (int extra = 0; extra < config.max_drain_rounds &&
                                    !stepper.overflowed() &&
                                    !stepper.drained();
                     ++extra) {
                  if (stepper.push_clean()) stepper.spend(budget);
                }
                const OnlineResult r = stepper.result();
                mix_into(digest, r.overflow ? 1 : 0);
                mix_into(digest, r.drained ? 1 : 0);
                mix_into(digest, r.total_cycles);
                mix_into(digest, r.layer_cycles.size());
                for (const std::uint64_t c : r.layer_cycles) {
                  mix_into(digest, c);
                }
                for (std::size_t q = 0; q < r.correction.size(); ++q) {
                  if (r.correction[q]) mix_into(digest, q);
                }
                mix_into(digest, r.matches.pair_matches);
                mix_into(digest, r.matches.self_matches);
                mix_into(digest, r.matches.boundary_matches);
                mix_into(digest, r.matches.vertical_ge3);
                mix_into(digest, r.matches.vertical_hist.size());
                for (const std::uint64_t n : r.matches.vertical_hist) {
                  mix_into(digest, n);
                }
                for (const MatchEvent& e : stepper.engine().trace()) {
                  mix_into(digest, static_cast<std::uint64_t>(e.kind));
                  for (const int field :
                       {e.sink_row, e.sink_col, e.base_depth, e.source_row,
                        e.source_col, e.source_depth, e.hop_limit}) {
                    mix_into(digest, static_cast<std::uint64_t>(field));
                  }
                  mix_into(digest, e.cycle);
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xe9f0f16161324dabULL);
}

// The all-zero fast paths need no cache: a clean window is charged
// analytically (zero_rounds) and a clean push claims its slot without a
// word copy (zero_pushes). The removed cache's own counters never move.
TEST(QecoolEngineFastPath, ZeroWindowsCountedAndCacheCountersStayZero) {
  const PlanarLattice lat(5);
  QecoolEngine clean(lat, QecoolConfig{});
  const PackedBits zero(static_cast<std::size_t>(lat.num_checks()));
  ASSERT_TRUE(clean.push_layer(zero));
  ASSERT_TRUE(clean.push_layer(zero));
  EXPECT_EQ(clean.cache_stats().zero_pushes, 2u);
  EXPECT_GT(clean.run(QecoolEngine::kUnlimited), 0u);
  EXPECT_EQ(clean.cache_stats().zero_rounds, 1u);
  EXPECT_EQ(clean.stored_layers(), 0);

  OnlineConfig config;
  config.cycles_per_round = 37;
  Xoshiro256ss rng(7);
  const auto h = sample_history(lat, {0.03, 0.03, 5}, rng);
  OnlineStepper stepper(lat, config);
  for (const auto& layer : h.difference) {
    ASSERT_TRUE(stepper.push(layer));
    stepper.spend(config.cycles_per_round);
  }
  for (int extra = 0; extra < config.max_drain_rounds && !stepper.drained();
       ++extra) {
    ASSERT_TRUE(stepper.push_clean());
    stepper.spend(config.cycles_per_round);
  }
  ASSERT_TRUE(stepper.drained());
  EXPECT_GT(stepper.result().matches.total(), 0u);
  const DecodeCacheStats& stats = stepper.engine().cache_stats();
  EXPECT_GT(stats.zero_rounds, 0u);
  EXPECT_GT(stats.zero_pushes, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.installs, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bypasses, 0u);
}

TEST(MatchStatsTest, RecordAndMerge) {
  MatchStats a;
  a.record(0);
  a.record(4);
  a.pair_matches = 2;
  MatchStats b;
  b.record(3);
  b.self_matches = 1;
  a.merge(b);
  EXPECT_EQ(a.vertical_ge3, 2u);
  EXPECT_EQ(a.total(), 3u);
  ASSERT_GE(a.vertical_hist.size(), 5u);
  EXPECT_EQ(a.vertical_hist[0], 1u);
  EXPECT_EQ(a.vertical_hist[3], 1u);
  EXPECT_EQ(a.vertical_hist[4], 1u);
}

// --- Batch decoder on top of the engine ------------------------------------

SyndromeHistory history_from_error(const PlanarLattice& lat,
                                   const BitVec& error) {
  SyndromeHistory h;
  h.final_error = error;
  h.measured = {lat.syndrome(error), lat.syndrome(error)};
  h.difference = difference_syndromes(h.measured);
  return h;
}

TEST(BatchQecool, CorrectsEverySingleDataError) {
  const PlanarLattice lat(5);
  BatchQecoolDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

class QecoolRandomHistories : public ::testing::TestWithParam<int> {};

TEST_P(QecoolRandomHistories, ResidualAlwaysSyndromeFree) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(41u * static_cast<unsigned>(d));
  BatchQecoolDecoder dec;
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, d}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST_P(QecoolRandomHistories, DecodeIsDeterministic) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(43u * static_cast<unsigned>(d));
  BatchQecoolDecoder dec;
  const auto h = sample_history(lat, {0.05, 0.05, d}, rng);
  const auto r1 = dec.decode(lat, h);
  const auto r2 = dec.decode(lat, h);
  EXPECT_EQ(r1.correction, r2.correction);
  EXPECT_EQ(r1.work, r2.work);
}

INSTANTIATE_TEST_SUITE_P(Distances, QecoolRandomHistories,
                         ::testing::Values(3, 5, 7, 9),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
