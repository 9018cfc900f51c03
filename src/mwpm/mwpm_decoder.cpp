#include "mwpm/mwpm_decoder.hpp"

#include <algorithm>

#include "mwpm/blossom.hpp"

namespace qec {

// Reduced graph: a vertex per defect, plus boundary vertex B (index nd) when
// nd is odd. Edge (i, j) weighs min(w(i,j), b(i) + b(j)) ("both go to the
// boundary"), edge (i, B) b(i). Its optimum equals that of private boundary
// copies [Fowler 2015]: there the copies unused by the k boundary-matched
// defects pair off, so k has nd's parity and those defects pair up here (one
// left for B) at no more weight; each edge here expands at equal weight.
// Tie rule: a matched (i, j) is a direct pair when w(i,j) <= b(i) + b(j).
std::vector<MatchedPair> MwpmDecoder::match_defects(
    const PlanarLattice& lattice, const std::vector<Defect>& defects) {
  const int nd = static_cast<int>(defects.size());
  const auto at = [&](int i) -> const Defect& {
    return defects[static_cast<std::size_t>(i)];
  };
  const auto bdist = [&](int i) {
    return lattice.boundary_distance(at(i).col);
  };
  std::vector<int> mate(1, nd);  // a lone defect needs no matcher: it takes B
  if (nd > 1) {
    BlossomMatcher matcher(nd + nd % 2);
    for (int i = 0; i < nd; ++i) {
      for (int j = i + 1; j < nd; ++j) {
        matcher.set_weight(i, j, std::min(defect_distance(at(i), at(j)),
                                          bdist(i) + bdist(j)));
      }
      if (nd % 2 != 0) matcher.set_weight(i, nd, bdist(i));
    }
    mate = matcher.solve();
  }
  std::vector<MatchedPair> pairs;
  for (int i = 0; i < nd; ++i) {
    const int j = mate[static_cast<std::size_t>(i)];
    if (j < i) continue;
    if (j < nd && defect_distance(at(i), at(j)) <= bdist(i) + bdist(j)) {
      pairs.push_back({at(i), at(j), false});
    } else {
      pairs.push_back({at(i), {}, true});
      if (j < nd) pairs.push_back({at(j), {}, true});
    }
  }
  return pairs;
}

DecodeResult MwpmDecoder::decode(const PlanarLattice& lattice,
                                 const SyndromeHistory& history) {
  const std::vector<Defect> defects =
      collect_defects(lattice, history.difference);
  const std::vector<MatchedPair> pairs = match_defects(lattice, defects);
  DecodeResult result;
  result.correction = pairs_to_correction(lattice, pairs);
  result.work = defects.size();
  return result;
}

}  // namespace qec
