// Pins every batch decoder's output on the three history sources: the
// phenomenological sampler, circuit-level noise and the correlated
// two-sector (depolarizing) sampler. Each digest is FNV-1a 64 over every
// decode's correction bits and work counter, in a fixed order. The
// expected values were computed once and are never edited: a change to a
// decoder's matching, its tie-breaking order, its work metric or the
// history it reads changes them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decoder/registry.hpp"
#include "noise/circuit_level.hpp"
#include "noise/depolarizing.hpp"
#include "noise/phenomenological.hpp"

using namespace qec;

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void add(const DecodeResult& r) {
    for (const std::uint8_t bit : r.correction) byte(bit);
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(r.work >> (8 * i)));
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
    return out;
  }
};

/// One (d, history) pair; the lattice is rebuilt per distance.
struct Sample {
  int d;
  SyndromeHistory history;
};

std::vector<Sample> phenomenological() {
  std::vector<Sample> out;
  std::uint64_t seed = 100;
  for (const int d : {3, 5, 7}) {
    const PlanarLattice lat(d);
    for (const double p : {0.005, 0.02, 0.05}) {
      Xoshiro256ss rng(++seed);
      for (int k = 0; k < 25; ++k) out.push_back({d, sample_history(lat, {p, p, d}, rng)});
    }
  }
  return out;
}

std::vector<Sample> circuit_level() {
  std::vector<Sample> out;
  std::uint64_t seed = 200;
  for (const int d : {3, 5}) {
    const PlanarLattice lat(d);
    for (const double p : {0.002, 0.01}) {
      Xoshiro256ss rng(++seed);
      for (int k = 0; k < 25; ++k) {
        out.push_back({d, sample_circuit_history(lat, {.p = p, .rounds = d}, rng)});
      }
    }
  }
  return out;
}

/// Both sectors of each two-sector history, X then Z.
std::vector<Sample> two_sector(double p_meas, bool code_capacity) {
  std::vector<Sample> out;
  std::uint64_t seed = code_capacity ? 400 : 300;
  for (const int d : code_capacity ? std::vector<int>{3} : std::vector<int>{3, 5}) {
    const PlanarLattice lat(d);
    for (const double p : {0.01, 0.05}) {
      Xoshiro256ss rng(++seed);
      for (int k = 0; k < 25; ++k) {
        const DepolarizingParams params{p, p_meas, code_capacity ? 1 : d};
        TwoSectorHistory h = sample_depolarizing_history(lat, params, rng);
        out.push_back({d, std::move(h.x)});
        out.push_back({d, std::move(h.z)});
      }
    }
  }
  return out;
}

/// Code-capacity histories (one noisy round, perfect readout) at d = 3:
/// the only input the exhaustive ML decoder accepts.
std::vector<Sample> code_capacity() {
  std::vector<Sample> out;
  const PlanarLattice lat(3);
  Xoshiro256ss rng(500);
  for (const double p : {0.02, 0.08, 0.15}) {
    for (int k = 0; k < 25; ++k) out.push_back({3, sample_history(lat, {p, 0.0, 1}, rng)});
  }
  for (Sample& s : two_sector(0.0, /*code_capacity=*/true)) out.push_back(std::move(s));
  return out;
}

std::string digest(const std::string& spec, const std::vector<Sample>& samples) {
  const auto decoder = make_decoder(spec);
  Fnv1a fnv;
  for (const Sample& s : samples) {
    const PlanarLattice lat(s.d);
    fnv.add(decoder->decode(lat, s.history));
  }
  return fnv.hex();
}

struct Pin {
  const char* spec;
  const char* phenomenological;
  const char* circuit_level;
  const char* two_sector;
};

}  // namespace

TEST(DecoderDigest, BatchDecodersArePinnedOnEveryHistorySource) {
  const std::vector<Sample> phen = phenomenological();
  const std::vector<Sample> circuit = circuit_level();
  const std::vector<Sample> sectors = two_sector(0.01, /*code_capacity=*/false);
  const Pin pins[] = {
      {"qecool", "410ffa2a8616d9bd", "2fde6977895d98d9", "2dc3873257405134"},
      {"mwpm", "e8f93822d0697c11", "d014a66c25ba3e2f", "d9540a36609baeda"},
      {"windowed-mwpm", "35c21eeddfea123a", "bea4d1936af57b52", "e5994f46040499e9"},
      {"uf", "5441b94c17952415", "db08c06bfd4a6a22", "81dcf6d00331ec72"},
      {"aqec", "74dbf88998e5b8c3", "af8a3bf97792fc75", "027ee0fb520b2880"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(digest(pin.spec, phen), pin.phenomenological) << pin.spec;
    EXPECT_EQ(digest(pin.spec, circuit), pin.circuit_level) << pin.spec;
    EXPECT_EQ(digest(pin.spec, sectors), pin.two_sector) << pin.spec;
  }
}

TEST(DecoderDigest, MaximumLikelihoodIsPinnedOnCodeCapacityHistories) {
  EXPECT_EQ(digest("ml:p=0.05", code_capacity()), "d9007ee10f0cde38");
}
