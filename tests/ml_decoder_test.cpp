// Tests for the exhaustive maximum-likelihood oracle decoder.
#include "decoder/ml_decoder.hpp"

#include <gtest/gtest.h>

#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

SyndromeHistory history_from_error(const PlanarLattice& lat,
                                   const BitVec& error) {
  SyndromeHistory h;
  h.final_error = error;
  h.difference = difference_syndromes({lat.syndrome(error), lat.syndrome(error)});
  return h;
}

TEST(MlDecoder, RejectsBadP) {
  EXPECT_THROW(MaximumLikelihoodDecoder(0.0), std::invalid_argument);
  EXPECT_THROW(MaximumLikelihoodDecoder(1.0), std::invalid_argument);
}

TEST(MlDecoder, RejectsLargeLattices) {
  const PlanarLattice lat(5);  // 41 qubits > kMaxQubits
  MaximumLikelihoodDecoder dec(0.05);
  const BitVec none(static_cast<std::size_t>(lat.num_data()), 0);
  EXPECT_THROW(dec.decode(lat, history_from_error(lat, none)),
               std::invalid_argument);
}

TEST(MlDecoder, RejectsMeasurementNoise) {
  const PlanarLattice lat(3);
  MaximumLikelihoodDecoder dec(0.05);
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  BitVec dirty = clean;
  dirty[0] = 1;
  h.difference = difference_syndromes({clean, dirty, clean});
  EXPECT_THROW(dec.decode(lat, h), std::invalid_argument);
}

TEST(MlDecoder, CorrectsEverySingleDataError) {
  const PlanarLattice lat(3);
  MaximumLikelihoodDecoder dec(0.05);
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "qubit " << q;
    EXPECT_FALSE(logical_failure(lat, h, r)) << "qubit " << q;
  }
}

TEST(MlDecoder, ExhaustiveWeightTwoNeverBeatsDistance) {
  const PlanarLattice lat(3);
  MaximumLikelihoodDecoder dec(0.05);
  // d=3 corrects every weight-1 error; weight-2+ may fail, but the decode
  // must always return a valid correction.
  for (int a = 0; a < lat.num_data(); ++a) {
    for (int b = a + 1; b < lat.num_data(); ++b) {
      BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
      err[static_cast<std::size_t>(a)] = 1;
      err[static_cast<std::size_t>(b)] = 1;
      const auto h = history_from_error(lat, err);
      const auto r = dec.decode(lat, h);
      ASSERT_TRUE(residual_syndrome_free(lat, h, r));
    }
  }
}

TEST(MlDecoder, IsNeverWorseThanApproximateDecoders) {
  // The oracle property over a Monte Carlo ensemble at d = 3.
  const PlanarLattice lat(3);
  const double p = 0.08;
  Xoshiro256ss rng(9001);
  MaximumLikelihoodDecoder ml(p);
  MwpmDecoder mwpm;
  BatchQecoolDecoder qecool;
  int f_ml = 0, f_mwpm = 0, f_qecool = 0;
  const int trials = 4000;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = sample_history(lat, {p, 0.0, 1}, rng);
    f_ml += logical_failure(lat, h, ml.decode(lat, h));
    f_mwpm += logical_failure(lat, h, mwpm.decode(lat, h));
    f_qecool += logical_failure(lat, h, qecool.decode(lat, h));
  }
  // Allow a little Monte Carlo slack in the strict inequality direction.
  EXPECT_LE(f_ml, f_mwpm + 10);
  EXPECT_LE(f_ml, f_qecool + 10);
  EXPECT_GT(f_qecool, 0) << "at p=0.08 and d=3 some failures must occur";
}

TEST(MlDecoder, AgreesWithMwpmOnUniqueSyndromes) {
  // For single-defect-pair syndromes the minimum-weight representative is
  // the unique shortest chain, so ML and MWPM corrections coincide.
  const PlanarLattice lat(3);
  MaximumLikelihoodDecoder ml(0.01);
  MwpmDecoder mwpm;
  for (int q = 0; q < lat.num_data(); ++q) {
    BitVec err(static_cast<std::size_t>(lat.num_data()), 0);
    err[static_cast<std::size_t>(q)] = 1;
    const auto h = history_from_error(lat, err);
    EXPECT_EQ(ml.decode(lat, h).correction, mwpm.decode(lat, h).correction)
        << "qubit " << q;
  }
}

}  // namespace
}  // namespace qec
