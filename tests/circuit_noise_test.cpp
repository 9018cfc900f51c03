// Tests for the circuit-level noise extension.
#include "noise/circuit_level.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(CircuitNoise, ZeroNoiseIsClean) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(1);
  const auto h = sample_circuit_history(lat, {0.0, 5, 1.0}, rng);
  EXPECT_TRUE(is_zero(h.final_error));
  EXPECT_EQ(defect_count(h), 0);
  EXPECT_EQ(h.total_rounds(), 6);
}

TEST(CircuitNoise, RejectsZeroRounds) {
  const PlanarLattice lat(3);
  Xoshiro256ss rng(1);
  EXPECT_THROW(sample_circuit_history(lat, {0.01, 0, 1.0}, rng),
               std::invalid_argument);
}

TEST(CircuitNoise, FinalRoundIsPerfect) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(2);
  const auto h = sample_circuit_history(lat, {0.01, 5, 1.0}, rng);
  // The last measured layer, the XOR of every difference layer, must
  // equal the true syndrome of the final error.
  PackedBits measured(static_cast<std::size_t>(lat.num_checks()));
  for (const auto& layer : h.difference) measured ^= layer;
  EXPECT_EQ(measured.to_bits(), lat.syndrome(h.final_error));
}

TEST(CircuitNoise, DifferenceTelescopes) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(3);
  const auto h = sample_circuit_history(lat, {0.02, 5, 1.0}, rng);
  PackedBits acc(static_cast<std::size_t>(lat.num_checks()));
  for (const auto& layer : h.difference) xor_into(layer, acc);
  EXPECT_EQ(acc.to_bits(), lat.syndrome(h.final_error));
}

TEST(CircuitNoise, LocationCountsAreConsistent) {
  const PlanarLattice lat(5);
  const auto counts = count_circuit_locations(lat);
  EXPECT_EQ(counts.resets, lat.num_checks());
  EXPECT_EQ(counts.measurements, lat.num_checks());
  // Every check has 2 horizontal CNOTs always, plus vertical ones except on
  // the top/bottom rows: total = sum of support sizes.
  int support_total = 0;
  for (int r = 0; r < lat.check_rows(); ++r) {
    for (int c = 0; c < lat.check_cols(); ++c) {
      support_total += static_cast<int>(lat.check_support(r, c).size());
    }
  }
  EXPECT_EQ(counts.cnots, support_total);
  EXPECT_EQ(counts.idle_slots, 4 * lat.num_data() - counts.cnots);
}

TEST(CircuitNoise, MoreLocationsThanPhenomenological) {
  // At equal p, circuit-level noise must inject more defects than the
  // phenomenological model (more fault locations per round).
  const PlanarLattice lat(7);
  Xoshiro256ss rng_a(4), rng_b(4);
  int circuit_defects = 0, pheno_defects = 0;
  for (int trial = 0; trial < 100; ++trial) {
    circuit_defects +=
        defect_count(sample_circuit_history(lat, {0.005, 7, 1.0}, rng_a));
    pheno_defects +=
        defect_count(sample_history(lat, {0.005, 0.005, 7}, rng_b));
  }
  EXPECT_GT(circuit_defects, pheno_defects);
}

TEST(CircuitNoise, IdleScaleMonotone) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng_a(5), rng_b(5);
  int with_idle = 0, without_idle = 0;
  for (int trial = 0; trial < 200; ++trial) {
    with_idle += weight(
        sample_circuit_history(lat, {0.01, 5, 1.0}, rng_a).final_error);
    without_idle += weight(
        sample_circuit_history(lat, {0.01, 5, 0.0}, rng_b).final_error);
  }
  EXPECT_GT(with_idle, without_idle);
}

class CircuitDecoding : public ::testing::TestWithParam<int> {};

TEST_P(CircuitDecoding, DecodersProduceValidCorrections) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(100u + static_cast<unsigned>(d));
  MwpmDecoder mwpm;
  BatchQecoolDecoder qecool;
  for (int trial = 0; trial < 25; ++trial) {
    const auto h = sample_circuit_history(lat, {0.005, d, 1.0}, rng);
    const auto rm = mwpm.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, rm)) << "MWPM trial " << trial;
    const auto rq = qecool.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, rq)) << "QECOOL trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, CircuitDecoding,
                         ::testing::Values(3, 5, 7),
                         ::testing::PrintToStringParamName());

TEST(CircuitNoise, DeterministicGivenRng) {
  const PlanarLattice lat(5);
  Xoshiro256ss a(77), b(77);
  const auto ha = sample_circuit_history(lat, {0.01, 5, 1.0}, a);
  const auto hb = sample_circuit_history(lat, {0.01, 5, 1.0}, b);
  EXPECT_EQ(ha.final_error, hb.final_error);
  EXPECT_EQ(ha.difference, hb.difference);
}

}  // namespace
}  // namespace qec
