#include "noise/depolarizing.hpp"

#include <stdexcept>

namespace qec {

TwoSectorHistory sample_depolarizing_history(const PlanarLattice& lattice,
                                             const DepolarizingParams& params,
                                             Xoshiro256ss& rng) {
  if (params.rounds < 1) throw std::invalid_argument("rounds must be >= 1");
  TwoSectorHistory history;
  SyndromeHistory* const sectors[] = {&history.x, &history.z};
  std::vector<BitVec> measured[2];  // per sector, packed once at the end
  for (int s = 0; s < 2; ++s) {
    sectors[s]->final_error.assign(
        static_cast<std::size_t>(lattice.num_data()), 0);
    measured[s].reserve(static_cast<std::size_t>(params.rounds) + 1);
  }

  for (int t = 0; t < params.rounds; ++t) {
    for (int q = 0; q < lattice.num_data(); ++q) {
      if (!rng.bernoulli(params.p)) continue;
      // Uniform over {X, Y, Z}; Y strikes both sectors (the correlation the
      // paper's independent-sector argument must survive).
      switch (rng.below(3)) {
        case 0:  // X
          history.x.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
        case 1:  // Y
          history.x.final_error[static_cast<std::size_t>(q)] ^= 1;
          history.z.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
        default:  // Z
          history.z.final_error[static_cast<std::size_t>(q)] ^= 1;
          break;
      }
    }
    for (int s = 0; s < 2; ++s) {
      BitVec meas = lattice.syndrome(sectors[s]->final_error);
      for (auto& bit : meas) {
        bit ^= static_cast<std::uint8_t>(rng.bernoulli(params.p_meas));
      }
      measured[s].push_back(std::move(meas));
    }
  }
  for (int s = 0; s < 2; ++s) {
    measured[s].push_back(lattice.syndrome(sectors[s]->final_error));
    sectors[s]->difference = difference_syndromes(measured[s]);
  }
  return history;
}

}  // namespace qec
