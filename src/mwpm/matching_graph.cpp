#include "mwpm/matching_graph.hpp"

#include <cmath>

namespace qec {

std::vector<Defect> collect_defects(const PlanarLattice& lattice,
                                    const std::vector<PackedBits>& difference) {
  std::vector<Defect> defects;
  for (int t = 0; t < static_cast<int>(difference.size()); ++t) {
    difference[static_cast<std::size_t>(t)].for_each_set([&](std::size_t idx) {
      const CheckCoord c = lattice.check_coord(static_cast<int>(idx));
      defects.push_back(Defect{c.row, c.col, t});
    });
  }
  return defects;
}

int defect_distance(const Defect& a, const Defect& b) {
  return std::abs(a.row - b.row) + std::abs(a.col - b.col) +
         std::abs(a.t - b.t);
}

BitVec pairs_to_correction(const PlanarLattice& lattice,
                           const std::vector<MatchedPair>& pairs) {
  BitVec correction(static_cast<std::size_t>(lattice.num_data()), 0);
  for (const auto& pair : pairs) {
    std::vector<int> path;
    if (pair.to_boundary) {
      path = lattice.boundary_path({pair.a.row, pair.a.col});
    } else {
      path = lattice.l_path({pair.a.row, pair.a.col},
                            {pair.b.row, pair.b.col});
    }
    for (int q : path) correction[static_cast<std::size_t>(q)] ^= 1;
  }
  return correction;
}

}  // namespace qec
