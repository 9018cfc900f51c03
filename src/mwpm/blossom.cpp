#include "mwpm/blossom.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace qec {
namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}

BlossomMatcher::BlossomMatcher(int n) : n_(n) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  n_total_ = n + n / 2 + 2;
  // The input weights live in the working graph itself (solve() rewrites
  // them in place), so no second n^2 copy is ever alive.
  g_.assign(static_cast<std::size_t>(n_total_),
            std::vector<Edge>(static_cast<std::size_t>(n_total_)));
  for (int u = 1; u <= n_; ++u) {
    for (int v = 1; v <= n_; ++v) g_[u][v] = Edge{u, v, 0};
  }
  for (int u = n_ + 1; u < n_total_; ++u) {
    for (int v = 0; v < n_total_; ++v) {
      g_[u][v] = Edge{u, v, 0};
      g_[v][u] = Edge{v, u, 0};
    }
  }
}

void BlossomMatcher::set_weight(int u, int v, std::int64_t weight) {
  if (u < 0 || u >= n_ || v < 0 || v >= n_ || u == v || weight < 0) {
    throw std::invalid_argument("set_weight needs u != v in [0, n), w >= 0");
  }
  assert(!solved_);
  g_[u + 1][v + 1].w = weight;
  g_[v + 1][u + 1].w = weight;
}

int& BlossomMatcher::flower_from(int b, int x) {
  assert(b > n_ && b < n_total_ && x >= 0 && x <= n_);
  return flower_from_[static_cast<std::size_t>(b - n_ - 1) * (n_ + 1) + x];
}

std::int64_t BlossomMatcher::edge_delta(const Edge& e) const {
  return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w * 2;
}

void BlossomMatcher::update_slack(int u, int x) {
  if (!slack_[x] || edge_delta(g_[u][x]) < edge_delta(g_[slack_[x]][x])) {
    slack_[x] = u;
  }
}

void BlossomMatcher::set_slack(int x) {
  slack_[x] = 0;
  for (int u = 1; u <= n_; ++u) {
    if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0) update_slack(u, x);
  }
}

void BlossomMatcher::queue_push(int x) {
  if (x <= n_) {
    queue_.push_back(x);
  } else {
    for (int sub : flower_[x]) queue_push(sub);
  }
}

void BlossomMatcher::set_st(int x, int b) {
  st_[x] = b;
  if (x > n_) {
    for (int sub : flower_[x]) set_st(sub, b);
  }
}

int BlossomMatcher::get_pr(int b, int xr) {
  const auto it = std::find(flower_[b].begin(), flower_[b].end(), xr);
  assert(it != flower_[b].end());
  int pr = static_cast<int>(it - flower_[b].begin());
  if (pr % 2 == 1) {
    // Walk the even way around the cycle instead.
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    return static_cast<int>(flower_[b].size()) - pr;
  }
  return pr;
}

void BlossomMatcher::set_match(int u, int v) {
  match_[u] = g_[u][v].v;
  if (u > n_) {
    const Edge e = g_[u][v];
    const int xr = flower_from(u, e.u);
    const int pr = get_pr(u, xr);
    for (int i = 0; i < pr; ++i) {
      set_match(flower_[u][i], flower_[u][i ^ 1]);
    }
    set_match(xr, v);
    std::rotate(flower_[u].begin(), flower_[u].begin() + pr, flower_[u].end());
  }
}

void BlossomMatcher::augment(int u, int v) {
  while (true) {
    const int xnv = st_[match_[u]];
    set_match(u, v);
    if (!xnv) return;
    set_match(xnv, st_[pa_[xnv]]);
    u = st_[pa_[xnv]];
    v = xnv;
  }
}

int BlossomMatcher::get_lca(int u, int v) {
  for (++lca_timer_; u || v; std::swap(u, v)) {
    if (u == 0) continue;
    if (vis_[u] == lca_timer_) return u;
    vis_[u] = lca_timer_;
    u = st_[match_[u]];
    if (u) u = st_[pa_[u]];
  }
  return 0;
}

void BlossomMatcher::add_blossom(int u, int lca, int v) {
  int b = n_ + 1;
  while (b <= n_x_ && st_[b]) ++b;
  if (b > n_x_) ++n_x_;
  assert(b < n_total_);
  lab_[b] = 0;
  s_[b] = 0;
  match_[b] = match_[lca];
  flower_[b].clear();
  flower_[b].push_back(lca);
  for (int x = u, y; x != lca; x = st_[pa_[y]]) {
    flower_[b].push_back(x);
    flower_[b].push_back(y = st_[match_[x]]);
    queue_push(y);
  }
  std::reverse(flower_[b].begin() + 1, flower_[b].end());
  for (int x = v, y; x != lca; x = st_[pa_[y]]) {
    flower_[b].push_back(x);
    flower_[b].push_back(y = st_[match_[x]]);
    queue_push(y);
  }
  set_st(b, b);
  for (int x = 1; x <= n_x_; ++x) g_[b][x].w = g_[x][b].w = 0;
  for (int x = 1; x <= n_; ++x) flower_from(b, x) = 0;
  for (int xs : flower_[b]) {
    for (int x = 1; x <= n_x_; ++x) {
      if (g_[b][x].w == 0 || edge_delta(g_[xs][x]) < edge_delta(g_[b][x])) {
        g_[b][x] = g_[xs][x];
        g_[x][b] = g_[x][xs];
      }
    }
    if (xs <= n_) {
      flower_from(b, xs) = xs;  // an original vertex contains only itself
    } else {
      for (int x = 1; x <= n_; ++x) {
        if (flower_from(xs, x)) flower_from(b, x) = xs;
      }
    }
  }
  set_slack(b);
}

void BlossomMatcher::expand_blossom(int b) {
  for (int sub : flower_[b]) set_st(sub, sub);
  const int xr = flower_from(b, g_[b][pa_[b]].u);
  const int pr = get_pr(b, xr);
  for (int i = 0; i < pr; i += 2) {
    const int xs = flower_[b][i];
    const int xns = flower_[b][i + 1];
    pa_[xs] = g_[xns][xs].u;
    s_[xs] = 1;
    s_[xns] = 0;
    slack_[xs] = 0;
    set_slack(xns);
    queue_push(xns);
  }
  s_[xr] = 1;
  pa_[xr] = pa_[b];
  for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < flower_[b].size();
       ++i) {
    const int xs = flower_[b][i];
    s_[xs] = -1;
    set_slack(xs);
  }
  st_[b] = 0;
}

bool BlossomMatcher::on_found_edge(const Edge& e) {
  const int u = st_[e.u];
  const int v = st_[e.v];
  if (s_[v] == -1) {
    pa_[v] = e.u;
    s_[v] = 1;
    const int nu = st_[match_[v]];
    slack_[v] = slack_[nu] = 0;
    s_[nu] = 0;
    queue_push(nu);
  } else if (s_[v] == 0) {
    const int lca = get_lca(u, v);
    if (!lca) {
      augment(u, v);
      augment(v, u);
      return true;
    }
    add_blossom(u, lca, v);
  }
  return false;
}

bool BlossomMatcher::matching_phase() {
  std::fill(s_.begin() + 1, s_.begin() + n_x_ + 1, -1);
  std::fill(slack_.begin() + 1, slack_.begin() + n_x_ + 1, 0);
  queue_.clear();
  queue_head_ = 0;
  for (int x = 1; x <= n_x_; ++x) {
    if (st_[x] == x && !match_[x]) {
      pa_[x] = 0;
      s_[x] = 0;
      queue_push(x);
    }
  }
  if (queue_.empty()) return false;
  while (true) {
    while (queue_head_ < queue_.size()) {
      const int u = queue_[queue_head_++];
      if (s_[st_[u]] == 1) continue;
      for (int v = 1; v <= n_; ++v) {
        if (g_[u][v].w > 0 && st_[u] != st_[v]) {
          if (edge_delta(g_[u][v]) == 0) {
            if (on_found_edge(g_[u][v])) return true;
          } else {
            update_slack(u, st_[v]);
          }
        }
      }
    }
    std::int64_t d = kInf;
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
    }
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && slack_[x]) {
        if (s_[x] == -1) {
          d = std::min(d, edge_delta(g_[slack_[x]][x]));
        } else if (s_[x] == 0) {
          d = std::min(d, edge_delta(g_[slack_[x]][x]) / 2);
        }
      }
    }
    for (int u = 1; u <= n_; ++u) {
      if (s_[st_[u]] == 0) {
        if (lab_[u] <= d) return false;  // dual would hit zero: no better
        lab_[u] -= d;
      } else if (s_[st_[u]] == 1) {
        lab_[u] += d;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[b] == b) {
        if (s_[b] == 0) {
          lab_[b] += d * 2;
        } else if (s_[b] == 1) {
          lab_[b] -= d * 2;
        }
      }
    }
    queue_.clear();
    queue_head_ = 0;
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
          edge_delta(g_[slack_[x]][x]) == 0) {
        if (on_found_edge(g_[slack_[x]][x])) return true;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
    }
  }
}

std::vector<int> BlossomMatcher::solve() {
  if (solved_) throw std::logic_error("BlossomMatcher::solve() runs once");
  solved_ = true;
  matching_weight_ = 0;
  if (n_ == 0) return {};
  if (n_ % 2 != 0) {
    throw std::invalid_argument("perfect matching needs an even vertex count");
  }
  // Transform minimisation into the maximisation form the primal-dual core
  // works in: w' = (w_max + 1) - w, so every edge weight is >= 1 (the core
  // uses w > 0 as the edge-existence test) and minimising Sum(w) over
  // perfect matchings equals maximising Sum(w').
  std::int64_t w_max = 0;
  for (int u = 1; u <= n_; ++u) {
    for (int v = 1; v <= n_; ++v) w_max = std::max(w_max, g_[u][v].w);
  }
  const std::int64_t offset = w_max + 1;
  for (int u = 1; u <= n_; ++u) {
    for (int v = 1; v <= n_; ++v) {
      if (u != v) g_[u][v].w = offset - g_[u][v].w;
    }
  }

  lab_.assign(static_cast<std::size_t>(n_total_), 0);
  match_.assign(static_cast<std::size_t>(n_total_), 0);
  slack_.assign(static_cast<std::size_t>(n_total_), 0);
  st_.assign(static_cast<std::size_t>(n_total_), 0);
  pa_.assign(static_cast<std::size_t>(n_total_), 0);
  s_.assign(static_cast<std::size_t>(n_total_), -1);
  vis_.assign(static_cast<std::size_t>(n_total_), 0);
  flower_.assign(static_cast<std::size_t>(n_total_), {});
  flower_from_.assign(static_cast<std::size_t>(n_total_ - n_ - 1) *
                          static_cast<std::size_t>(n_ + 1),
                      0);
  lca_timer_ = 0;

  n_x_ = n_;
  for (int u = 0; u <= n_; ++u) st_[u] = u;
  for (int u = 1; u <= n_; ++u) lab_[u] = offset;  // max transformed weight

  while (matching_phase()) {
  }

  std::vector<int> mate(static_cast<std::size_t>(n_), -1);
  for (int u = 1; u <= n_; ++u) {
    if (match_[u]) {
      mate[u - 1] = match_[u] - 1;
      if (match_[u] < u) {
        // The matching phases never rewrite an original-vertex edge
        // (blossoms get their own rows): offset - w is the input weight.
        matching_weight_ += offset - g_[u][match_[u]].w;
      }
    }
  }
  return mate;
}

}  // namespace qec
