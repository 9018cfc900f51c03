#include "unionfind/uf_decoder.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "unionfind/union_find.hpp"

namespace qec {
namespace {

// Space-time graph: vertex (t, check) = t * num_checks + check, plus one
// virtual boundary vertex shared by both rough boundaries.
struct Edge {
  int u = 0;
  int v = 0;
  int data_qubit = -1;  // -1 for temporal edges
  std::uint8_t growth = 0;
};

struct Graph {
  int layers = 0;
  int checks = 0;
  int boundary = 0;  // vertex id
  std::vector<Edge> edges;
  std::vector<std::vector<int>> incident;  // vertex -> edge indices

  int vertex(int t, int check) const { return t * checks + check; }
};

Graph build_graph(const PlanarLattice& lattice, int layers) {
  Graph graph;
  graph.layers = layers;
  graph.checks = lattice.num_checks();
  graph.boundary = layers * graph.checks;
  const int rows = lattice.check_rows();
  const int cols = lattice.check_cols();
  const int d = lattice.distance();

  auto add_edge = [&graph](int u, int v, int q) {
    graph.edges.push_back(Edge{u, v, q, 0});
  };

  for (int t = 0; t < layers; ++t) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const int u = graph.vertex(t, lattice.check_index(r, c));
        // Eastward spatial edge.
        if (c + 1 < cols) {
          add_edge(u, graph.vertex(t, lattice.check_index(r, c + 1)),
                   lattice.horizontal_qubit(r, c + 1));
        }
        // Southward spatial edge.
        if (r + 1 < rows) {
          add_edge(u, graph.vertex(t, lattice.check_index(r + 1, c)),
                   lattice.vertical_qubit(r, c));
        }
        // Rough-boundary edges on the first and last columns.
        if (c == 0) add_edge(u, graph.boundary, lattice.horizontal_qubit(r, 0));
        if (c == cols - 1) {
          add_edge(u, graph.boundary, lattice.horizontal_qubit(r, d - 1));
        }
        // Temporal edge to the next layer.
        if (t + 1 < layers) {
          add_edge(u, graph.vertex(t + 1, lattice.check_index(r, c)), -1);
        }
      }
    }
  }
  graph.incident.resize(static_cast<std::size_t>(graph.boundary) + 1);
  for (int e = 0; e < static_cast<int>(graph.edges.size()); ++e) {
    graph.incident[static_cast<std::size_t>(graph.edges[static_cast<std::size_t>(e)].u)]
        .push_back(e);
    graph.incident[static_cast<std::size_t>(graph.edges[static_cast<std::size_t>(e)].v)]
        .push_back(e);
  }
  return graph;
}

}  // namespace

DecodeResult UnionFindDecoder::decode(const PlanarLattice& lattice,
                                      const SyndromeHistory& history) {
  const int layers = history.total_rounds();
  Graph graph = build_graph(lattice, layers);
  const int num_vertices = graph.boundary + 1;

  std::vector<std::uint8_t> defect(static_cast<std::size_t>(num_vertices), 0);
  ClusterSets clusters(num_vertices);
  clusters.mark_boundary(graph.boundary);

  bool any_defect = false;
  for (int t = 0; t < layers; ++t) {
    history.difference[static_cast<std::size_t>(t)].for_each_set(
        [&](std::size_t check) {
          const int v = graph.vertex(t, static_cast<int>(check));
          defect[static_cast<std::size_t>(v)] = 1;
          clusters.toggle_parity(v);
          any_defect = true;
        });
  }

  DecodeResult result;
  result.correction.assign(static_cast<std::size_t>(lattice.num_data()), 0);
  if (!any_defect) return result;

  // --- Stage 1: syndrome validation by cluster growth --------------------
  std::uint64_t work = 0;
  while (true) {
    bool any_active = false;
    // Grow every edge adjacent to an active (odd, non-boundary) cluster by
    // the number of active endpoints, then merge saturated edges.
    std::vector<int> saturated;
    for (int e = 0; e < static_cast<int>(graph.edges.size()); ++e) {
      Edge& edge = graph.edges[static_cast<std::size_t>(e)];
      if (edge.growth >= 2) continue;
      int grow = 0;
      if (clusters.active(edge.u)) ++grow;
      if (clusters.active(edge.v)) ++grow;
      if (grow == 0) continue;
      any_active = true;
      edge.growth = static_cast<std::uint8_t>(
          std::min(2, static_cast<int>(edge.growth) + grow));
      if (edge.growth >= 2) saturated.push_back(e);
      ++work;
    }
    if (!any_active) break;
    for (int e : saturated) {
      const Edge& edge = graph.edges[static_cast<std::size_t>(e)];
      clusters.unite(edge.u, edge.v);
    }
  }

  // --- Stage 2: peeling --------------------------------------------------
  // Build a spanning forest of the erasure (fully grown edges), rooting
  // trees at the boundary vertex first so boundary-connected clusters peel
  // toward the boundary.
  std::vector<int> parent_edge(static_cast<std::size_t>(num_vertices), -1);
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(num_vertices), 0);
  std::vector<int> order;  // BFS order over all trees
  order.reserve(static_cast<std::size_t>(num_vertices));

  auto bfs_from = [&](int root) {
    visited[static_cast<std::size_t>(root)] = 1;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const int u = order[head];
      for (int e : graph.incident[static_cast<std::size_t>(u)]) {
        const Edge& edge = graph.edges[static_cast<std::size_t>(e)];
        if (edge.growth < 2) continue;
        const int v = edge.u == u ? edge.v : edge.u;
        if (visited[static_cast<std::size_t>(v)]) continue;
        visited[static_cast<std::size_t>(v)] = 1;
        parent_edge[static_cast<std::size_t>(v)] = e;
        order.push_back(v);
      }
    }
  };

  bfs_from(graph.boundary);
  for (int v = 0; v < num_vertices; ++v) {
    if (!visited[static_cast<std::size_t>(v)]) bfs_from(v);
  }

  // Peel leaves in reverse BFS order: each defective vertex sends its defect
  // across its parent edge.
  for (std::size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    const int e = parent_edge[static_cast<std::size_t>(v)];
    if (e < 0) continue;  // tree root
    if (!defect[static_cast<std::size_t>(v)]) continue;
    const Edge& edge = graph.edges[static_cast<std::size_t>(e)];
    const int parent = edge.u == v ? edge.v : edge.u;
    defect[static_cast<std::size_t>(v)] = 0;
    defect[static_cast<std::size_t>(parent)] ^= 1;
    if (edge.data_qubit >= 0) {
      result.correction[static_cast<std::size_t>(edge.data_qubit)] ^= 1;
    }
  }
  // The boundary vertex, the last one, absorbs whatever parity reaches it.
  for (int v = 0; v < graph.boundary; ++v) {
    if (defect[static_cast<std::size_t>(v)]) {
      throw std::logic_error("union-find peeling left an unmatched defect");
    }
  }
  result.work = work;
  return result;
}

}  // namespace qec
