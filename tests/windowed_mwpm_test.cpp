// Tests for the sliding-window MWPM decoder.
#include "mwpm/windowed_mwpm.hpp"

#include <gtest/gtest.h>

#include "decoder/decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(WindowedMwpm, RejectsBadConfig) {
  EXPECT_THROW(WindowedMwpmDecoder({0, 0}), std::invalid_argument);
  EXPECT_THROW(WindowedMwpmDecoder({4, 4}), std::invalid_argument);
  EXPECT_THROW(WindowedMwpmDecoder({4, -1}), std::invalid_argument);
}

TEST(WindowedMwpm, HugeWindowEqualsBatchMwpm) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(11);
  WindowedMwpmDecoder windowed({1000, 0});
  MwpmDecoder batch;
  for (int trial = 0; trial < 30; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 5}, rng);
    const auto rw = windowed.decode(lat, h);
    const auto rb = batch.decode(lat, h);
    // One final flush over all defects = exactly one batch MWPM.
    EXPECT_EQ(rw.correction, rb.correction) << "trial " << trial;
    EXPECT_LE(windowed.last_window_count(), 1);
  }
}

TEST(WindowedMwpm, ResidualAlwaysSyndromeFree) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(13);
  WindowedMwpmDecoder dec({6, 3});
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 7}, rng);
    const auto r = dec.decode(lat, h);
    ASSERT_TRUE(residual_syndrome_free(lat, h, r)) << "trial " << trial;
  }
}

TEST(WindowedMwpm, WindowCountScalesWithHistory) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(17);
  WindowedMwpmDecoder dec({4, 2});
  const auto h = sample_history(lat, {0.05, 0.05, 10}, rng);
  dec.decode(lat, h);
  EXPECT_GT(dec.last_window_count(), 2);
}

TEST(WindowedMwpm, AccuracyDegradesGracefullyWithSmallWindows) {
  // A small window with a small guard commits premature matches; the
  // failure rate may rise but must stay within a sane factor of batch.
  const PlanarLattice lat(5);
  Xoshiro256ss rng(19);
  WindowedMwpmDecoder tight({4, 1});
  MwpmDecoder batch;
  int f_tight = 0, f_batch = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 5}, rng);
    f_tight += logical_failure(lat, h, tight.decode(lat, h));
    f_batch += logical_failure(lat, h, batch.decode(lat, h));
  }
  EXPECT_GE(f_tight + 5, f_batch);
  EXPECT_LE(f_tight, trials / 4) << "windowed decoding must still decode";
}

TEST(WindowedMwpm, SingleErrorCommitsExactCorrection) {
  const PlanarLattice lat(5);
  const int q = lat.horizontal_qubit(2, 2);
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  h.final_error[static_cast<std::size_t>(q)] = 1;
  const BitVec synd = lat.syndrome(h.final_error);
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  h.difference = difference_syndromes({clean, synd, synd, synd, synd, synd, synd, synd});
  WindowedMwpmDecoder dec({4, 2});
  const auto r = dec.decode(lat, h);
  EXPECT_EQ(r.correction, h.final_error);
  // The match is old enough to commit before the final flush.
  EXPECT_GT(dec.last_window_count(), 1);
}

}  // namespace
}  // namespace qec
