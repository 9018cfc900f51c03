// Exhaustive minimum-weight matching by dynamic programming over vertex
// subsets, the reference the exact matchers are tested against. Exponential
// in the vertex count: keep n <= ~16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qec {

/// Minimum total weight over matchings of the complete graph `w` (n x n,
/// symmetric). Vertex i may instead stay single at cost `single[i]`; an
/// empty `single` asks for a perfect matching.
inline std::int64_t brute_force_min(
    const std::vector<std::vector<std::int64_t>>& w,
    const std::vector<std::int64_t>& single = {}) {
  const int n = static_cast<int>(w.size());
  const std::size_t full = std::size_t{1} << n;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> dp(full, kInf);
  dp[0] = 0;
  for (std::size_t mask = 0; mask < full; ++mask) {
    if (dp[mask] == kInf) continue;
    int first = -1;
    for (int i = 0; i < n; ++i) {
      if (!(mask & (std::size_t{1} << i))) {
        first = i;
        break;
      }
    }
    if (first < 0) continue;
    const auto relax = [&](std::size_t next, std::int64_t cand) {
      if (cand < dp[next]) dp[next] = cand;
    };
    const std::size_t with_first = mask | (std::size_t{1} << first);
    if (!single.empty()) {
      relax(with_first, dp[mask] + single[static_cast<std::size_t>(first)]);
    }
    for (int j = first + 1; j < n; ++j) {
      if (mask & (std::size_t{1} << j)) continue;
      relax(with_first | (std::size_t{1} << j),
            dp[mask] + w[static_cast<std::size_t>(first)]
                        [static_cast<std::size_t>(j)]);
    }
  }
  return dp[full - 1];
}

}  // namespace qec
