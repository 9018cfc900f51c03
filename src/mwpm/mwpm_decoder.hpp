// Minimum-weight perfect matching decoder — the paper's accuracy baseline
// (dashed curves in Fig 4a; first row of Table IV).
#pragma once

#include "decoder/decoder.hpp"
#include "mwpm/matching_graph.hpp"

namespace qec {

class MwpmDecoder final : public Decoder {
 public:
  std::string name() const override { return "MWPM"; }

  DecodeResult decode(const PlanarLattice& lattice,
                      const SyndromeHistory& history) override;

  /// Matches an arbitrary defect list on a lattice (also each window of
  /// WindowedMwpmDecoder) and returns the pairs chosen by exact MWPM.
  static std::vector<MatchedPair> match_defects(
      const PlanarLattice& lattice, const std::vector<Defect>& defects);
};

}  // namespace qec
