// Tests for the phenomenological noise model and syndrome histories.
#include "noise/phenomenological.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "stream/service.hpp"
#include "stream/trace.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(Noise, NoNoiseGivesCleanHistory) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(1);
  const auto h = sample_history(lat, {0.0, 0.0, 5}, rng);
  EXPECT_EQ(h.total_rounds(), 6);  // 5 noisy + 1 perfect
  EXPECT_TRUE(is_zero(h.final_error));
  for (const auto& layer : h.measured) EXPECT_TRUE(is_zero(layer));
  EXPECT_EQ(defect_count(h), 0);
}

TEST(Noise, RejectsZeroRounds) {
  const PlanarLattice lat(3);
  Xoshiro256ss rng(1);
  EXPECT_THROW(sample_history(lat, {0.1, 0.1, 0}, rng),
               std::invalid_argument);
}

TEST(Noise, FinalRoundIsPerfect) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(2);
  const auto h = sample_history(lat, {0.05, 0.05, 5}, rng);
  // Last measured layer must equal the true syndrome of the final error.
  EXPECT_EQ(h.measured.back(), lat.syndrome(h.final_error));
}

TEST(Noise, DifferenceTelescopesToFinalMeasurement) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(3);
  const auto h = sample_history(lat, {0.03, 0.03, 7}, rng);
  BitVec acc(static_cast<std::size_t>(lat.num_checks()), 0);
  for (const auto& layer : h.difference) xor_into(layer, acc);
  EXPECT_EQ(acc, h.measured.back());
}

TEST(Noise, MeasurementNoiseOnlyLeavesDataClean) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(4);
  const auto h = sample_history(lat, {0.0, 0.2, 10}, rng);
  EXPECT_TRUE(is_zero(h.final_error));
  // With no data errors, every defect comes in a vertical pair: the total
  // per-check defect parity over all layers must be even.
  BitVec acc(static_cast<std::size_t>(lat.num_checks()), 0);
  for (const auto& layer : h.difference) xor_into(layer, acc);
  EXPECT_TRUE(is_zero(acc));
  // And with p_meas = 0.2 over 10 rounds some defects must exist.
  EXPECT_GT(defect_count(h), 0);
}

TEST(Noise, DataNoiseCreatesMatchingSyndrome) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(5);
  const auto h = sample_history(lat, {0.1, 0.0, 3}, rng);
  // With perfect measurement, every measured layer is the true syndrome of
  // the accumulated error — in particular each is a valid syndrome.
  for (const auto& layer : h.measured) {
    EXPECT_EQ(layer.size(), static_cast<std::size_t>(lat.num_checks()));
  }
  EXPECT_EQ(h.measured.back(), lat.syndrome(h.final_error));
}

TEST(Noise, DeterministicGivenRngState) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng1(42), rng2(42);
  const auto a = sample_history(lat, {0.02, 0.02, 5}, rng1);
  const auto b = sample_history(lat, {0.02, 0.02, 5}, rng2);
  EXPECT_EQ(a.final_error, b.final_error);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.difference, b.difference);
}

TEST(Noise, ErrorRateRoughlyMatchesP) {
  const PlanarLattice lat(9);
  Xoshiro256ss rng(6);
  const double p = 0.05;
  const int rounds = 1;
  int flips = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto h = sample_history(lat, {p, 0.0, rounds}, rng);
    flips += weight(h.final_error);
  }
  const double expected = p * lat.num_data();
  EXPECT_NEAR(static_cast<double>(flips) / trials, expected,
              0.05 * expected + 0.5);
}

TEST(Noise, DifferenceSyndromesStandalone) {
  std::vector<BitVec> measured = {{0, 1, 0}, {1, 1, 0}, {1, 0, 0}};
  const auto diff = difference_syndromes(measured);
  ASSERT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff[0], (BitVec{0, 1, 0}));
  EXPECT_EQ(diff[1], (BitVec{1, 0, 0}));
  EXPECT_EQ(diff[2], (BitVec{0, 1, 0}));
}

TEST(Noise, RejectsBadParametersNamingTheField) {
  const PlanarLattice lat(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto message = [&](NoiseParams params) -> std::string {
    Xoshiro256ss rng(1);
    try {
      sample_history(lat, params, rng);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const double bad : {1.5, -0.1, nan}) {
    EXPECT_NE(message({bad, 0.01, 3}).find("p_data"), std::string::npos);
    EXPECT_NE(message({0.01, bad, 3}).find("p_meas"), std::string::npos);
  }
  EXPECT_NE(message({0.01, 0.01, -3}).find("rounds"), std::string::npos);
  EXPECT_EQ(message({0.0, 1.0, 1}), "no exception");
}

// ---------------------------------------------------------------------------
// The geometric-skip sampler.

/// Draws `rng` consumed since it equalled `before`: steps a copy of
/// `before` until it emits the value `rng` emits next (a 64-bit output
/// match pins the position; `limit` bounds the search).
int draws_between(Xoshiro256ss before, Xoshiro256ss rng, int limit) {
  const std::uint64_t next = rng();
  for (int draws = 0; draws <= limit; ++draws) {
    if (before() == next) return draws;
  }
  return -1;
}

/// Per-position flip counts of both channels; every position saw
/// `samples` Bernoulli trials.
struct FlipCounts {
  std::vector<long> data, meas;
  long samples = 0;
};

/// Runs `histories` histories of `rounds` noisy rounds through the sampler
/// and counts, per position, the data flips of each round (data error
/// XOR the previous round's) and the measurement flips (measured XOR the
/// true syndrome of the data error).
FlipCounts count_flips(const PlanarLattice& lat, const NoiseParams& params,
                       int histories, std::uint64_t seed) {
  FlipCounts counts;
  counts.data.assign(static_cast<std::size_t>(lat.num_data()), 0);
  counts.meas.assign(static_cast<std::size_t>(lat.num_checks()), 0);
  Xoshiro256ss rng(seed);
  for (int h = 0; h < histories; ++h) {
    PhenomenologicalSampler sampler(lat, params, rng);
    BitVec previous(counts.data.size(), 0);
    for (int t = 0; t < params.rounds; ++t) {
      sampler.next();
      const BitVec error = sampler.data_error().to_bits();
      const BitVec truth = lat.syndrome(error);
      const BitVec measured = sampler.measured().to_bits();
      for (std::size_t q = 0; q < error.size(); ++q) {
        counts.data[q] += error[q] ^ previous[q];
      }
      for (std::size_t c = 0; c < truth.size(); ++c) {
        counts.meas[c] += measured[c] ^ truth[c];
      }
      previous = error;
    }
  }
  counts.samples = static_cast<long>(histories) * params.rounds;
  return counts;
}

/// |k - n·p| within z binomial standard deviations (plus 1 for the
/// discreteness of k).
void expect_binomial(long k, long n, double p, double z, const char* what) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  EXPECT_LE(std::fabs(static_cast<double>(k) - mean), z * sd + 1.0)
      << what << ": " << k << " flips in " << n << " trials at p=" << p;
}

// Every data position and every measurement position flips at its own
// channel's rate. p_meas = 2·p_data, so a swapped or shared channel shows.
// Bounds: each position at z = 5.5 (two-sided tail ~4e-8, ~1000 positions
// in all), each channel's total at z = 4.
TEST(SkipSampler, PerPositionFlipFrequenciesMatchP) {
  const PlanarLattice lat(5);
  for (const double p : {1e-4, 1e-3, 1e-2, 0.04}) {
    SCOPED_TRACE(p);
    // 400-round histories: >= 20 expected data flips per position, and
    // >= 20000 rounds, so the totals resolve a rate bias of a few percent
    // at the larger p (e.g. a gap that skips one extra position).
    const int histories = std::max(50, static_cast<int>(20.0 / p / 400.0));
    const NoiseParams params{p, 2.0 * p, 400};
    const FlipCounts counts = count_flips(lat, params, histories, 77);
    long data_total = 0, meas_total = 0;
    for (const long k : counts.data) {
      expect_binomial(k, counts.samples, params.p_data, 5.5, "data position");
      data_total += k;
    }
    for (const long k : counts.meas) {
      expect_binomial(k, counts.samples, params.p_meas, 5.5, "meas position");
      meas_total += k;
    }
    expect_binomial(data_total, counts.samples * lat.num_data(), params.p_data,
                    4.0, "data total");
    expect_binomial(meas_total, counts.samples * lat.num_checks(),
                    params.p_meas, 4.0, "meas total");
  }
}

// d = 3 has 13 data qubits and 6 checks, so at p = 0.01 the mean gap
// (~100 positions) spans many rounds: flips must still land at rate p,
// rounds without a data flip must occur at rate (1-p)^13, and the sampler
// must draw exactly once per flip plus once per channel.
TEST(SkipSampler, GapsCrossRoundBoundaries) {
  const PlanarLattice lat(3);
  const double p = 0.01;
  const int rounds = 20000;
  Xoshiro256ss rng(2024);
  const Xoshiro256ss before = rng;
  PhenomenologicalSampler sampler(lat, {p, p, rounds}, rng);
  long data_flips = 0, meas_flips = 0, quiet_rounds = 0;
  BitVec previous(static_cast<std::size_t>(lat.num_data()), 0);
  for (int t = 0; t < rounds; ++t) {
    sampler.next();
    const BitVec error = sampler.data_error().to_bits();
    const int flips = weight(xor_of(error, previous));
    data_flips += flips;
    quiet_rounds += flips == 0;
    meas_flips += weight(xor_of(sampler.measured().to_bits(), lat.syndrome(error)));
    previous = error;
  }
  sampler.next();  // final perfect round draws nothing
  expect_binomial(data_flips, static_cast<long>(rounds) * lat.num_data(), p,
                  4.0, "data");
  expect_binomial(meas_flips, static_cast<long>(rounds) * lat.num_checks(), p,
                  4.0, "meas");
  expect_binomial(quiet_rounds, rounds, std::pow(1.0 - p, lat.num_data()), 4.0,
                  "quiet rounds");
  const long expected_draws = 2 + data_flips + meas_flips;
  EXPECT_EQ(draws_between(before, rng, static_cast<int>(expected_draws) + 10),
            expected_draws);
}

TEST(SkipSampler, ZeroProbabilityIsCleanAndDrawsNothing) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(9);
  const Xoshiro256ss before = rng;
  const auto h = sample_history(lat, {0.0, 0.0, 50}, rng);
  EXPECT_TRUE(is_zero(h.final_error));
  EXPECT_EQ(defect_count(h), 0);
  EXPECT_EQ(draws_between(before, rng, 4), 0);
}

TEST(SkipSampler, UnitProbabilityFlipsEverythingEveryRound) {
  const PlanarLattice lat(5);
  const int rounds = 5;
  Xoshiro256ss rng(9);
  const Xoshiro256ss before = rng;
  const auto h = sample_history(lat, {1.0, 1.0, rounds}, rng);
  EXPECT_EQ(draws_between(before, rng, 4), 0);
  const BitVec ones(static_cast<std::size_t>(lat.num_data()), 1);
  const BitVec zeros(ones.size(), 0);
  for (int t = 0; t <= rounds; ++t) {
    // Every data qubit flips every round: round t holds (t+1) mod 2.
    const BitVec& error = t < rounds && t % 2 == 1 ? zeros : ones;
    BitVec expected = lat.syndrome(error);
    if (t < rounds) {
      for (auto& bit : expected) bit ^= 1;  // every measurement flips
    }
    EXPECT_EQ(h.measured[static_cast<std::size_t>(t)], expected) << "t=" << t;
  }
  EXPECT_EQ(h.final_error, ones);  // odd number of noisy rounds
}

StreamConfig small_stream() {
  StreamConfig config;
  config.lanes = 5;
  config.distance = 5;
  config.p = 0.03;
  config.rounds = 12;
  config.seed = 2026;
  return config;
}

std::string saved_bytes(const SyndromeTrace& trace, const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  trace.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

// record_trace writes packed layers straight into the trace; the byte
// path (sample_history) unpacks the same sampler, so with equal RNG state
// they must agree bit for bit.
TEST(SkipSampler, RecordTraceEqualsPackedSampleHistory) {
  const StreamConfig config = small_stream();
  const SyndromeTrace trace = record_trace(config);
  const PlanarLattice lat(config.distance);
  for (int lane = 0; lane < config.lanes; ++lane) {
    Xoshiro256ss rng = lane_rng(config, lane, config.rounds);
    const auto h =
        sample_history(lat, {config.p, config.p, config.rounds}, rng);
    const auto packed = packed_layers(h.difference);
    ASSERT_EQ(static_cast<int>(packed.size()), trace.rounds());
    for (int t = 0; t < trace.rounds(); ++t) {
      EXPECT_EQ(trace.layer(lane, t), packed[static_cast<std::size_t>(t)])
          << "lane " << lane << " round " << t;
    }
    EXPECT_EQ(trace.final_error(lane), h.final_error) << "lane " << lane;
  }
}

TEST(SkipSampler, RecordTraceBytesIndependentOfThreads) {
  StreamConfig config = small_stream();
  config.lanes = 37;
  config.threads = 1;
  const std::string one = saved_bytes(record_trace(config), "rec_t1.qtrc");
  config.threads = 4;
  EXPECT_EQ(saved_bytes(record_trace(config), "rec_t4.qtrc"), one);
  EXPECT_FALSE(one.empty());
}

// Pins the sampler's RNG stream: FNV-1a 64 of the QTRC bytes of one small
// record. A change here changes every recorded trace for a given seed, so
// it must be deliberate (docs/determinism.md, guarantee 2).
TEST(SkipSampler, RecordedStreamIsPinned) {
  const std::string bytes = saved_bytes(record_trace(small_stream()), "pin.qtrc");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size())));
  EXPECT_EQ(std::string(hex), "30acce818c1bae40");
}

class NoiseSweep : public ::testing::TestWithParam<int> {};

TEST_P(NoiseSweep, HistoriesAreInternallyConsistent) {
  const int d = GetParam();
  const PlanarLattice lat(d);
  Xoshiro256ss rng(1000u + static_cast<unsigned>(d));
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, d}, rng);
    ASSERT_EQ(h.total_rounds(), d + 1);
    ASSERT_EQ(static_cast<int>(h.final_error.size()), lat.num_data());
    // Difference layers must reconstruct measured layers by prefix XOR.
    BitVec acc(static_cast<std::size_t>(lat.num_checks()), 0);
    for (int t = 0; t < h.total_rounds(); ++t) {
      xor_into(h.difference[static_cast<std::size_t>(t)], acc);
      ASSERT_EQ(acc, h.measured[static_cast<std::size_t>(t)]) << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, NoiseSweep, ::testing::Values(3, 5, 7, 9),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace qec
