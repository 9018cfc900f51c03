// Space-time matching graph for matching-based decoders.
//
// Defects are the set bits of the difference syndromes. Two defects match
// at their L1 space-time distance, a defect and its nearest rough boundary
// at their hop distance; MwpmDecoder::match_defects builds on these.
#pragma once

#include <cstdint>
#include <vector>

#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {

struct Defect {
  int row = 0;
  int col = 0;
  int t = 0;
  friend bool operator==(const Defect&, const Defect&) = default;
};

/// Extracts the defect list from a history's difference syndromes.
std::vector<Defect> collect_defects(const PlanarLattice& lattice,
                                    const std::vector<BitVec>& difference);

/// L1 space-time separation used as the matching weight.
int defect_distance(const Defect& a, const Defect& b);

/// One matched pair in the output of a matching decoder. `to_boundary`
/// pairs have `b` meaningless.
struct MatchedPair {
  Defect a;
  Defect b;
  bool to_boundary = false;
};

/// Turns matched pairs into a data-qubit correction: defect-defect pairs
/// flip the L-path between the two checks, boundary pairs flip the path to
/// the nearest rough boundary. Time-like components need no data flips.
BitVec pairs_to_correction(const PlanarLattice& lattice,
                           const std::vector<MatchedPair>& pairs);

}  // namespace qec
