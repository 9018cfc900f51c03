// Property tests for the exact blossom matcher: compare against exhaustive
// bitmask-DP minimum-weight perfect matching on random complete graphs.
#include "mwpm/blossom.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "brute_force_matching.hpp"
#include "common/rng.hpp"

namespace qec {
namespace {

std::vector<std::vector<std::int64_t>> random_weights(int n, std::int64_t maxw,
                                                      Xoshiro256ss& rng) {
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto v = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(maxw) + 1));
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
      w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
    }
  }
  return w;
}

std::int64_t run_blossom(const std::vector<std::vector<std::int64_t>>& w,
                         std::vector<int>* mate_out = nullptr) {
  const int n = static_cast<int>(w.size());
  BlossomMatcher matcher(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      matcher.set_weight(i, j, w[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(j)]);
    }
  }
  const std::vector<int> mate = matcher.solve();
  if (mate_out) *mate_out = mate;
  return matcher.matching_weight();
}

TEST(Blossom, TwoVertices) {
  BlossomMatcher matcher(2);
  matcher.set_weight(0, 1, 7);
  const auto mate = matcher.solve();
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[1], 0);
  EXPECT_EQ(matcher.matching_weight(), 7);
  // solve() rewrites the weights in place, so it runs once per matcher.
  EXPECT_THROW(matcher.solve(), std::logic_error);
}

TEST(Blossom, FourVerticesPicksCheaperPairing) {
  // Pairing (0-1)(2-3) costs 2; any other pairing costs >= 20.
  BlossomMatcher matcher(4);
  matcher.set_weight(0, 1, 1);
  matcher.set_weight(2, 3, 1);
  matcher.set_weight(0, 2, 10);
  matcher.set_weight(0, 3, 10);
  matcher.set_weight(1, 2, 10);
  matcher.set_weight(1, 3, 10);
  const auto mate = matcher.solve();
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[2], 3);
  EXPECT_EQ(matcher.matching_weight(), 2);
}

TEST(Blossom, ZeroWeightEdgesAllowed) {
  BlossomMatcher matcher(4);
  matcher.set_weight(0, 1, 0);
  matcher.set_weight(2, 3, 0);
  matcher.set_weight(0, 2, 5);
  matcher.set_weight(0, 3, 5);
  matcher.set_weight(1, 2, 5);
  matcher.set_weight(1, 3, 5);
  matcher.solve();
  EXPECT_EQ(matcher.matching_weight(), 0);
}

TEST(Blossom, MatchingIsAlwaysPerfectAndSymmetric) {
  Xoshiro256ss rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 * (1 + static_cast<int>(rng.below(6)));  // 2..12
    const auto w = random_weights(n, 30, rng);
    std::vector<int> mate;
    run_blossom(w, &mate);
    for (int v = 0; v < n; ++v) {
      ASSERT_GE(mate[static_cast<std::size_t>(v)], 0) << "unmatched vertex";
      ASSERT_EQ(mate[static_cast<std::size_t>(
                    mate[static_cast<std::size_t>(v)])],
                v)
          << "mate not symmetric";
      ASSERT_NE(mate[static_cast<std::size_t>(v)], v);
    }
  }
}

struct BruteForceCase {
  int n;
  std::int64_t max_weight;
  int trials;
};

class BlossomVsBruteForce : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(BlossomVsBruteForce, WeightsAgree) {
  const auto param = GetParam();
  Xoshiro256ss rng(0xc0ffee + static_cast<std::uint64_t>(param.n) * 7919 +
                   static_cast<std::uint64_t>(param.max_weight));
  for (int trial = 0; trial < param.trials; ++trial) {
    const auto w = random_weights(param.n, param.max_weight, rng);
    const std::int64_t expected = brute_force_min(w);
    const std::int64_t actual = run_blossom(w);
    ASSERT_EQ(actual, expected)
        << "n=" << param.n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BlossomVsBruteForce,
    ::testing::Values(BruteForceCase{4, 10, 200}, BruteForceCase{6, 10, 200},
                      BruteForceCase{8, 10, 150}, BruteForceCase{10, 20, 100},
                      BruteForceCase{12, 5, 60}, BruteForceCase{12, 100, 60},
                      BruteForceCase{14, 7, 40}, BruteForceCase{16, 3, 25},
                      BruteForceCase{16, 1000, 25}),
    [](const ::testing::TestParamInfo<BruteForceCase>& info) {
      return "n" + std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.max_weight);
    });

// Larger randomized sanity: weight must match a greedy upper bound or beat
// it, and duplicate solves must be deterministic.
TEST(Blossom, DeterministicAndNoWorseThanGreedy) {
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 40;
    const auto w = random_weights(n, 50, rng);
    const std::int64_t first = run_blossom(w);
    const std::int64_t second = run_blossom(w);
    EXPECT_EQ(first, second);
    // Greedy: repeatedly take the globally cheapest remaining pair.
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    std::int64_t greedy = 0;
    for (int k = 0; k < n / 2; ++k) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      int bi = -1, bj = -1;
      for (int i = 0; i < n; ++i) {
        if (used[static_cast<std::size_t>(i)]) continue;
        for (int j = i + 1; j < n; ++j) {
          if (used[static_cast<std::size_t>(j)]) continue;
          if (w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] <
              best) {
            best = w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            bi = i;
            bj = j;
          }
        }
      }
      used[static_cast<std::size_t>(bi)] = true;
      used[static_cast<std::size_t>(bj)] = true;
      greedy += best;
    }
    EXPECT_LE(first, greedy);
  }
}

}  // namespace
}  // namespace qec
