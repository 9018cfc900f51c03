// Structural properties of the MWPM decoder's boundary construction and
// optimality on the space-time graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "brute_force_matching.hpp"
#include "mwpm/blossom.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

int pairing_cost(const PlanarLattice& lat,
                 const std::vector<MatchedPair>& pairs) {
  int cost = 0;
  for (const auto& pair : pairs) {
    if (pair.to_boundary) {
      cost += lat.boundary_distance(pair.a.col);
    } else {
      cost += defect_distance(pair.a, pair.b);
    }
  }
  return cost;
}

// Optimal weight of the private-copy construction [Fowler 2015]: defects
// [0, nd), their own boundary copies [nd, 2nd), free copy-copy edges and a
// sentinel on defect-to-foreign-copy edges. The dense reference that
// match_defects' reduced graph must agree with.
std::int64_t private_copy_weight(const PlanarLattice& lat,
                                 const std::vector<Defect>& defects) {
  constexpr std::int64_t kForbidden = 1 << 20;
  const int nd = static_cast<int>(defects.size());
  BlossomMatcher matcher(2 * nd);
  for (int i = 0; i < nd; ++i) {
    const Defect& di = defects[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < nd; ++j) {
      matcher.set_weight(
          i, j, defect_distance(di, defects[static_cast<std::size_t>(j)]));
      matcher.set_weight(nd + i, nd + j, 0);
    }
    for (int j = 0; j < nd; ++j) {
      matcher.set_weight(i, nd + j,
                         j == i ? lat.boundary_distance(di.col) : kForbidden);
    }
  }
  matcher.solve();
  return matcher.matching_weight();
}

// Exhaustive optimum: each defect pairs with another or goes to the
// boundary on its own.
std::int64_t subset_dp_weight(const PlanarLattice& lat,
                              const std::vector<Defect>& defects) {
  const std::size_t nd = defects.size();
  std::vector<std::vector<std::int64_t>> w(nd, std::vector<std::int64_t>(nd));
  std::vector<std::int64_t> boundary(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    boundary[i] = lat.boundary_distance(defects[i].col);
    for (std::size_t j = 0; j < nd; ++j) {
      w[i][j] = defect_distance(defects[i], defects[j]);
    }
  }
  return brute_force_min(w, boundary);
}

int boundary_pairs(const std::vector<MatchedPair>& pairs) {
  int count = 0;
  for (const auto& pair : pairs) count += pair.to_boundary ? 1 : 0;
  return count;
}

TEST(MwpmStructure, WeightEqualsPrivateCopyReference) {
  // d=3 and high p give many ties, where the chosen pairs may differ from
  // the reference's; the weight may not.
  int histories = 0, brute_forced = 0;
  for (const int d : {3, 5, 7, 9}) {
    const PlanarLattice lat(d);
    for (const double p : {0.005, 0.01, 0.02, 0.03}) {
      Xoshiro256ss rng(1000u * static_cast<unsigned>(d) +
                       static_cast<unsigned>(p * 1000));
      for (int trial = 0; trial < 250; ++trial, ++histories) {
        const auto h = sample_history(lat, {p, p, d}, rng);
        const auto defects = collect_defects(lat, h.difference);
        const auto pairs = MwpmDecoder::match_defects(lat, defects);

        std::vector<int> seen(defects.size(), 0);
        for (const auto& pair : pairs) {
          for (std::size_t i = 0; i < defects.size(); ++i) {
            if (defects[i] == pair.a ||
                (!pair.to_boundary && defects[i] == pair.b)) {
              ++seen[i];
            }
          }
        }
        for (std::size_t i = 0; i < defects.size(); ++i) {
          ASSERT_EQ(seen[i], 1) << "d=" << d << " p=" << p << " trial "
                                << trial << " defect " << i;
        }
        // Even nd never uses B; odd nd uses it exactly once.
        EXPECT_EQ(boundary_pairs(pairs) % 2,
                  static_cast<int>(defects.size()) % 2);

        const std::int64_t weight = pairing_cost(lat, pairs);
        ASSERT_EQ(weight, private_copy_weight(lat, defects))
            << "d=" << d << " p=" << p << " trial " << trial;
        if (defects.size() <= 10) {
          ++brute_forced;
          ASSERT_EQ(weight, subset_dp_weight(lat, defects))
              << "d=" << d << " p=" << p << " trial " << trial;
        }
      }
    }
  }
  EXPECT_EQ(histories, 4000);
  EXPECT_GT(brute_forced, 1000) << "the brute-force check ran too rarely";
}

TEST(MwpmStructure, TieBetweenPairAndBoundaryMatchesDirectly) {
  // w = 2 equals b + b = 1 + 1: the documented tie rule picks the pair.
  const PlanarLattice lat(5);
  const auto pairs = MwpmDecoder::match_defects(lat, {{0, 0, 0}, {0, 0, 2}});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].to_boundary);
}

TEST(MwpmStructure, SingleDefectGoesToBoundary) {
  const PlanarLattice lat(7);
  const auto pairs = MwpmDecoder::match_defects(lat, {{2, 3, 4}});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].to_boundary);
  EXPECT_EQ(pairs[0].a, (Defect{2, 3, 4}));
  EXPECT_TRUE(MwpmDecoder::match_defects(lat, {}).empty());
}

TEST(MwpmStructure, EveryDefectAppearsExactlyOnce) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);
    const auto defects = collect_defects(lat, h.difference);
    const auto pairs = MwpmDecoder::match_defects(lat, defects);
    int covered = 0;
    for (const auto& pair : pairs) covered += pair.to_boundary ? 1 : 2;
    EXPECT_EQ(covered, static_cast<int>(defects.size()));
  }
}

TEST(MwpmStructure, MatchingCostNeverExceedsGreedy) {
  // Exactness check at the pairing level: the MWPM cost must lower-bound
  // the greedy nearest-pair heuristic cost on the same defect set.
  const PlanarLattice lat(9);
  Xoshiro256ss rng(321);
  for (int trial = 0; trial < 25; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 9}, rng);
    auto defects = collect_defects(lat, h.difference);
    if (defects.empty()) continue;
    const auto pairs = MwpmDecoder::match_defects(lat, defects);
    const int optimal = pairing_cost(lat, pairs);

    // Greedy: repeatedly match the globally closest option (pair or
    // boundary) among the remaining defects.
    std::vector<std::uint8_t> used(defects.size(), 0);
    int greedy = 0;
    for (std::size_t matched = 0; matched < defects.size();) {
      int best = 1 << 20;
      int bi = -1, bj = -1;  // bj = -1 means boundary
      for (std::size_t i = 0; i < defects.size(); ++i) {
        if (used[i]) continue;
        const int bdist = lat.boundary_distance(defects[i].col);
        if (bdist < best) {
          best = bdist;
          bi = static_cast<int>(i);
          bj = -1;
        }
        for (std::size_t j = i + 1; j < defects.size(); ++j) {
          if (used[j]) continue;
          const int dist = defect_distance(defects[i], defects[j]);
          if (dist < best) {
            best = dist;
            bi = static_cast<int>(i);
            bj = static_cast<int>(j);
          }
        }
      }
      ASSERT_GE(bi, 0) << "an unused defect always has a boundary option";
      used[static_cast<std::size_t>(bi)] = 1;
      ++matched;
      if (bj >= 0) {
        used[static_cast<std::size_t>(bj)] = 1;
        ++matched;
      }
      greedy += best;
    }
    EXPECT_LE(optimal, greedy) << "trial " << trial;
  }
}

TEST(MwpmStructure, NearBoundaryDefectPairsWithItsOwnSide) {
  const PlanarLattice lat(9);
  // Lone defect next to the right wall: correction must lie entirely on
  // right-side horizontal qubits of its row.
  const std::vector<Defect> defects = {{3, 7, 0}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  ASSERT_EQ(pairs.size(), 1u);
  ASSERT_TRUE(pairs[0].to_boundary);
  const BitVec corr = pairs_to_correction(lat, pairs);
  EXPECT_EQ(weight(corr), 1);
  EXPECT_EQ(corr[static_cast<std::size_t>(lat.horizontal_qubit(3, 8))], 1);
}

TEST(MwpmStructure, TimeSeparatedDefectsOnSameCheckMatchVertically) {
  const PlanarLattice lat(9);
  // Two defects on the same check 2 rounds apart: vertical match (cost 2)
  // beats two boundary matches (cost 2x4=8); no data correction results.
  const std::vector<Defect> defects = {{4, 3, 1}, {4, 3, 3}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].to_boundary);
  EXPECT_TRUE(is_zero(pairs_to_correction(lat, pairs)));
}

TEST(MwpmStructure, CorrectionWeightEqualsSpatialMatchingCost) {
  // Each pair contributes exactly its spatial path length (mod overlaps);
  // with disjoint paths the total correction weight equals the spatial
  // component of the matching cost.
  const PlanarLattice lat(9);
  const std::vector<Defect> defects = {{0, 0, 0}, {0, 2, 0}, {7, 4, 2},
                                       {5, 4, 2}};
  const auto pairs = MwpmDecoder::match_defects(lat, defects);
  const BitVec corr = pairs_to_correction(lat, pairs);
  EXPECT_EQ(weight(corr), 2 + 2);
}

}  // namespace
}  // namespace qec
