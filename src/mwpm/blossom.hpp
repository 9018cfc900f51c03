// Exact minimum-weight perfect matching on dense general graphs.
//
// This is the primal-dual blossom algorithm (Edmonds) in its O(V^3)
// adjacency-matrix formulation with doubled dual variables so that all duals
// stay integral for integer weights. It is the exact matcher behind the
// paper's MWPM baseline [Fowler 2015]; we implement it from scratch and
// property-test it against exhaustive bitmask-DP matching on small random
// graphs (see tests/mwpm_blossom_test.cpp).
//
// The matcher works on a COMPLETE graph: every pair of distinct vertices
// carries a weight. MwpmDecoder::match_defects builds one on the defects
// themselves (plus one shared boundary vertex when their count is odd).
#pragma once

#include <cstdint>
#include <vector>

namespace qec {

class BlossomMatcher {
 public:
  /// n vertices, 0-indexed externally. For a perfect matching to exist on a
  /// complete graph n must be even.
  explicit BlossomMatcher(int n);

  /// Sets the (symmetric) weight of edge {u, v}; u != v in [0, n) and
  /// weight >= 0, else throws std::invalid_argument.
  void set_weight(int u, int v, std::int64_t weight);

  /// Solves minimum-weight perfect matching. Returns mate[v] for every
  /// vertex (0-indexed). Requires every pair to have been given a weight
  /// (or relies on the default, which is 0). Runs once per matcher: it
  /// rewrites the weights in place, and a second call throws
  /// std::logic_error.
  std::vector<int> solve();

  /// Total weight of the matching found by the last solve().
  std::int64_t matching_weight() const { return matching_weight_; }

 private:
  struct Edge {
    int u = 0;
    int v = 0;
    std::int64_t w = 0;
  };

  std::int64_t edge_delta(const Edge& e) const;
  void update_slack(int u, int x);
  void set_slack(int x);
  void queue_push(int x);
  void set_st(int x, int b);
  int get_pr(int b, int xr);
  void set_match(int u, int v);
  void augment(int u, int v);
  int get_lca(int u, int v);
  void add_blossom(int u, int lca, int v);
  void expand_blossom(int b);
  bool on_found_edge(const Edge& e);
  bool matching_phase();
  /// The sub-blossom of blossom `b` (> n_) that holds original vertex `x`,
  /// or 0. Only blossom ids have rows: an original vertex holds only
  /// itself.
  int& flower_from(int b, int x);

  int n_ = 0;        // real vertices (1-indexed internally)
  int n_total_ = 0;  // capacity incl. blossom ids
  int n_x_ = 0;      // current highest node id in use
  std::vector<std::vector<Edge>> g_;
  std::vector<std::int64_t> lab_;
  std::vector<int> match_, slack_, st_, pa_, s_, vis_;
  std::vector<std::vector<int>> flower_;
  std::vector<int> flower_from_;  // flower_from() rows, flat
  std::vector<int> queue_;
  std::size_t queue_head_ = 0;
  std::int64_t matching_weight_ = 0;
  bool solved_ = false;
  int lca_timer_ = 0;
};

}  // namespace qec
