// Edge-case tests for the threshold estimator and matching-graph helpers.
#include <cmath>
#include <gtest/gtest.h>

#include "mwpm/matching_graph.hpp"
#include "sim/threshold.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(ThresholdEdge, EmptyCurves) {
  EXPECT_FALSE(estimate_threshold({}).has_value());
  EXPECT_FALSE(estimate_threshold({DistanceCurve{5, {}}}).has_value());
}

TEST(ThresholdEdge, SinglePointCurvesCannotCross) {
  DistanceCurve a{5, {{0.01, 0.1}}};
  DistanceCurve b{7, {{0.01, 0.2}}};
  EXPECT_FALSE(curve_crossing(a, b).has_value());
}

TEST(ThresholdEdge, DisjointRanges) {
  DistanceCurve a{5, {{0.001, 0.01}, {0.002, 0.02}}};
  DistanceCurve b{7, {{0.01, 0.01}, {0.02, 0.02}}};
  EXPECT_FALSE(curve_crossing(a, b).has_value());
}

TEST(ThresholdEdge, TouchingCurvesCountAsCrossing) {
  // Curves meeting exactly at a sample point.
  DistanceCurve a{5, {{0.01, 0.10}, {0.02, 0.20}, {0.04, 0.40}}};
  DistanceCurve b{7, {{0.01, 0.05}, {0.02, 0.20}, {0.04, 0.80}}};
  const auto th = curve_crossing(a, b);
  ASSERT_TRUE(th.has_value());
  EXPECT_NEAR(*th, 0.02, 0.002);
}

TEST(ThresholdEdge, AveragesMultipleCrossings) {
  // Three curves with pairwise crossings at the same point.
  std::vector<DistanceCurve> curves;
  for (int d : {5, 7, 9}) {
    DistanceCurve c{d, {}};
    for (double p : {0.005, 0.01, 0.02, 0.04}) {
      c.points.push_back({p, std::pow(p / 0.015, d) * 0.2});
    }
    curves.push_back(c);
  }
  const auto th = estimate_threshold(curves);
  ASSERT_TRUE(th.has_value());
  EXPECT_NEAR(*th, 0.015, 0.0015);
}

TEST(MatchingGraph, DefectDistanceIsAMetric) {
  const Defect a{1, 2, 3}, b{4, 0, 1}, c{2, 2, 2};
  EXPECT_EQ(defect_distance(a, a), 0);
  EXPECT_EQ(defect_distance(a, b), defect_distance(b, a));
  EXPECT_LE(defect_distance(a, b),
            defect_distance(a, c) + defect_distance(c, b));
  EXPECT_EQ(defect_distance(a, b), 3 + 2 + 2);
}

TEST(MatchingGraph, CollectDefectsFindsAllSetBits) {
  const PlanarLattice lat(5);
  std::vector<PackedBits> layers(
      3, PackedBits(static_cast<std::size_t>(lat.num_checks())));
  layers[0].set(static_cast<std::size_t>(lat.check_index(1, 1)));
  layers[2].set(static_cast<std::size_t>(lat.check_index(4, 3)));
  const auto defects = collect_defects(lat, layers);
  ASSERT_EQ(defects.size(), 2u);
  EXPECT_EQ(defects[0], (Defect{1, 1, 0}));
  EXPECT_EQ(defects[1], (Defect{4, 3, 2}));
}

TEST(MatchingGraph, PairsToCorrectionXorsOverlaps) {
  const PlanarLattice lat(5);
  // Two identical pairs cancel: XOR semantics.
  const std::vector<MatchedPair> pairs = {
      {{1, 1, 0}, {1, 2, 0}, false},
      {{1, 1, 0}, {1, 2, 0}, false},
  };
  EXPECT_TRUE(is_zero(pairs_to_correction(lat, pairs)));
}

TEST(MatchingGraph, TimeLikePairNeedsNoDataCorrection) {
  const PlanarLattice lat(5);
  const std::vector<MatchedPair> pairs = {{{2, 2, 0}, {2, 2, 3}, false}};
  EXPECT_TRUE(is_zero(pairs_to_correction(lat, pairs)));
}

}  // namespace
}  // namespace qec
