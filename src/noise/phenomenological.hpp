// Phenomenological noise model (Dennis et al. 2002), the error model the
// paper uses for every accuracy result: in each measurement round every data
// qubit flips independently with probability p_data, and every ancilla
// measurement outcome is reported incorrectly with probability p_meas. The
// paper sets p_data = p_meas = p.
//
// A SyndromeHistory carries both what the decoder is allowed to see (the
// measured syndromes) and the ground truth needed to score the trial (the
// accumulated physical error).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "surface_code/packed_bits.hpp"
#include "surface_code/pauli_frame.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {

struct NoiseParams {
  double p_data = 0.0;
  double p_meas = 0.0;
  /// Noisy measurement rounds. A final, perfect round is always appended so
  /// the logical observable is well-defined (standard practice; see
  /// DESIGN.md).
  int rounds = 1;
};

struct SyndromeHistory {
  /// Total stored rounds = params.rounds + 1 (the final perfect round).
  int total_rounds() const { return static_cast<int>(measured.size()); }

  /// measured[t][check]: the syndrome value reported by the hardware in
  /// round t (cumulative parity of the error so far, XOR measurement noise).
  std::vector<BitVec> measured;

  /// difference[t][check] = measured[t] XOR measured[t-1] (measured[-1]=0):
  /// the defect indicator each decoder actually matches on, and the value
  /// QECOOL Units push into their Reg queues.
  std::vector<BitVec> difference;

  /// Ground truth: accumulated data error after the last round.
  BitVec final_error;
};

/// The phenomenological sampler: streams one history round by round in
/// packed form. Each error channel is a Bernoulli(p) sequence over its
/// flattened (round, position) index space, sampled by geometric skipping:
/// one RNG draw per flip (plus one per channel to start), not one per bit,
/// so a round costs O(p·n) draws (DESIGN.md §4). Data flips XOR the
/// qubit's <= 2 check bits into a running packed syndrome; each round's
/// difference layer is meas_t ^ meas_{t-1}, word by word.
///
/// Draw order, which defines the RNG stream: the constructor draws the
/// first data gap, then the first measurement gap; round t then walks its
/// data flips, then its measurement flips, each flip drawing the next gap
/// of its own channel. p = 0 and p = 1 draw nothing (no flip / every
/// position flips).
class PhenomenologicalSampler {
 public:
  /// Throws std::invalid_argument naming the field when p_data or p_meas
  /// is outside [0, 1] (NaN included) or rounds < 1.
  PhenomenologicalSampler(const PlanarLattice& lattice,
                          const NoiseParams& params, Xoshiro256ss& rng);

  /// Stored rounds: params.rounds noisy rounds plus the final perfect one.
  int total_rounds() const { return rounds_ + 1; }

  /// Samples the next stored round and returns its difference layer (the
  /// returned reference is overwritten by the next call). Call exactly
  /// total_rounds() times; the last call is the final perfect round.
  const PackedBits& next();

  /// Measured syndrome of the round next() last returned.
  const PackedBits& measured() const { return measured_; }
  /// Accumulated data error so far (the ground truth after the last round).
  const PackedBits& data_error() const { return data_error_; }

 private:
  /// One Bernoulli(p) channel over a flattened index space: `next` is the
  /// index of its next flip.
  struct Channel {
    double p = 0.0;
    double log_q = 0.0;  ///< ln(1 - p)
    std::uint64_t next = 0;
    void advance(std::uint64_t from, Xoshiro256ss& rng);
  };

  const PlanarLattice& lattice_;
  Xoshiro256ss& rng_;
  int rounds_;
  int round_ = 0;
  Channel data_;
  Channel meas_;
  PackedBits data_error_;
  PackedBits syndrome_;  ///< true syndrome of data_error_
  PackedBits measured_;
  PackedBits difference_;
};

/// Samples one memory-experiment history (PhenomenologicalSampler unpacked
/// into the byte-per-bit shapes the Monte Carlo decoders take).
SyndromeHistory sample_history(const PlanarLattice& lattice,
                               const NoiseParams& params, Xoshiro256ss& rng);

/// Computes difference syndromes from a measured-syndrome sequence (exposed
/// for tests and for decoders fed with externally generated data).
std::vector<BitVec> difference_syndromes(const std::vector<BitVec>& measured);

/// Inverse of difference_syndromes: rebuilds the measured-syndrome sequence
/// as the running XOR of the difference layers. Syndrome traces (see
/// src/stream/trace.hpp) persist only differences — this is how a replayed
/// lane recovers a full SyndromeHistory for scoring.
std::vector<BitVec> accumulate_differences(
    const std::vector<BitVec>& difference);

/// Packs a byte-per-bit layer sequence (the bridge from sample_history
/// output into the packed trace payload).
std::vector<PackedBits> packed_layers(const std::vector<BitVec>& layers);

/// Total number of defects (set difference-syndrome bits) in a history.
int defect_count(const SyndromeHistory& history);

}  // namespace qec
