// Tests for the Union-Find decoder and its cluster bookkeeping.
#include "unionfind/uf_decoder.hpp"

#include <gtest/gtest.h>

#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"
#include "unionfind/union_find.hpp"

namespace qec {
namespace {

TEST(ClusterSets, BasicUnionAndParity) {
  ClusterSets cs(6);
  EXPECT_FALSE(cs.odd(0));
  cs.toggle_parity(0);
  EXPECT_TRUE(cs.odd(0));
  cs.toggle_parity(1);
  cs.unite(0, 1);
  EXPECT_FALSE(cs.odd(0));  // two defects merged: even
  EXPECT_EQ(cs.find(0), cs.find(1));
  EXPECT_EQ(cs.size(0), 2);
}

TEST(ClusterSets, BoundaryPropagatesThroughUnions) {
  ClusterSets cs(4);
  cs.mark_boundary(3);
  cs.toggle_parity(0);
  EXPECT_TRUE(cs.active(0));
  cs.unite(0, 3);
  EXPECT_FALSE(cs.active(0));  // boundary contact deactivates
  EXPECT_TRUE(cs.touches_boundary(0));
}

TEST(ClusterSets, UniteIsIdempotent) {
  ClusterSets cs(3);
  cs.toggle_parity(0);
  cs.unite(0, 1);
  const int root = cs.find(0);
  EXPECT_EQ(cs.unite(1, 0), root);
  EXPECT_EQ(cs.size(0), 2);
  EXPECT_TRUE(cs.odd(1));
}

SyndromeHistory history_from_error(const PlanarLattice& lat,
                                   const BitVec& error) {
  SyndromeHistory h;
  h.final_error = error;
  h.difference = difference_syndromes({lat.syndrome(error), lat.syndrome(error)});
  return h;
}

TEST(UnionFindDecoder, CorrectsEverySingleDataError) {
  const PlanarLattice lat(5);
  UnionFindDecoder dec;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

TEST(UnionFindDecoder, MeasurementErrorOnlyNeedsNoDataCorrection) {
  const PlanarLattice lat(5);
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  BitVec flipped = clean;
  flipped[5] = 1;
  h.difference = difference_syndromes({clean, flipped, clean, clean});
  UnionFindDecoder dec;
  const auto r = dec.decode(lat, h);
  EXPECT_TRUE(is_zero(r.correction));
}

TEST(UnionFindDecoder, EmptyHistory) {
  const PlanarLattice lat(7);
  const BitVec none(static_cast<std::size_t>(lat.num_data()), 0);
  UnionFindDecoder dec;
  const auto r = dec.decode(lat, history_from_error(lat, none));
  EXPECT_TRUE(is_zero(r.correction));
}

class UfRandomHistories : public ::testing::TestWithParam<int> {};

TEST_P(UfRandomHistories, ResidualAlwaysSyndromeFree) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(13u * static_cast<unsigned>(d));
  UnionFindDecoder dec;
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.04, 0.04, d}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST_P(UfRandomHistories, AccuracyWithinRangeOfMwpm) {
  // UF is a strict approximation of MWPM: on aggregate it must not fail
  // dramatically more often. This is a smoke bound, not a tight one.
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(29u * static_cast<unsigned>(d));
  UnionFindDecoder uf;
  MwpmDecoder mwpm;
  int uf_fail = 0, mwpm_fail = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, d}, rng);
    uf_fail += logical_failure(lat, h, uf.decode(lat, h));
    mwpm_fail += logical_failure(lat, h, mwpm.decode(lat, h));
  }
  EXPECT_LE(mwpm_fail, uf_fail + 5);
  EXPECT_LE(uf_fail, trials / 3);
}

INSTANTIATE_TEST_SUITE_P(Distances, UfRandomHistories,
                         ::testing::Values(3, 5, 7),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
