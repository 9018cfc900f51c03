// Batch-QECOOL: Algorithm 1 run in the batch-QEC manner of Section III-C
// (Ndepth = all stored rounds, thv = -1, Controller executed after all
// measurements). This is the decoder behind Fig 4a/4b; with a single noisy
// round it is also the "QECOOL 2-D" entry of Table IV.
#pragma once

#include "decoder/decoder.hpp"
#include "qecool/config.hpp"
#include "qecool/engine.hpp"

namespace qec {

class BatchQecoolDecoder final : public Decoder {
 public:
  explicit BatchQecoolDecoder(QecoolConfig config = {});

  std::string name() const override { return "Batch-QECOOL"; }

  /// Decodes a complete history. `work` in the result is hardware cycles
  /// under the engine's cycle model.
  DecodeResult decode(const PlanarLattice& lattice,
                      const SyndromeHistory& history) override;

  /// Match statistics of the most recent decode (Fig 4b instrumentation).
  const MatchStats& last_match_stats() const { return last_stats_; }

  const MatchStats* match_stats() const override { return &last_stats_; }

 private:
  QecoolConfig config_;
  MatchStats last_stats_;
};

}  // namespace qec
