#include "noise/phenomenological.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace qec {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

double checked_probability(const char* field, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument(std::string("noise: ") + field +
                                " must be in [0, 1]");
  }
  return p;
}

}  // namespace

void PhenomenologicalSampler::Channel::advance(std::uint64_t from,
                                               Xoshiro256ss& rng) {
  if (p <= 0.0) {
    next = kNever;
    return;
  }
  if (p >= 1.0) {
    next = from;
    return;
  }
  // U in (0, 1] from one 53-bit draw. The gap G = floor(ln U / ln(1-p))
  // satisfies G >= k  <=>  U <= (1-p)^k, so P(G >= k) = (1-p)^k: exactly
  // the run of non-flips before the next flip of a Bernoulli(p) sequence.
  const double u = static_cast<double>((rng() >> 11) + 1) * 0x1.0p-53;
  const double gap = std::floor(std::log(u) / log_q);
  next = gap < 0x1.0p62 ? from + static_cast<std::uint64_t>(gap) : kNever;
}

PhenomenologicalSampler::PhenomenologicalSampler(const PlanarLattice& lattice,
                                                 const NoiseParams& params,
                                                 Xoshiro256ss& rng)
    : lattice_(lattice),
      rng_(rng),
      rounds_(params.rounds),
      data_error_(static_cast<std::size_t>(lattice.num_data())),
      syndrome_(static_cast<std::size_t>(lattice.num_checks())),
      measured_(syndrome_.size()),
      difference_(syndrome_.size()) {
  data_.p = checked_probability("p_data", params.p_data);
  meas_.p = checked_probability("p_meas", params.p_meas);
  if (params.rounds < 1) {
    throw std::invalid_argument("noise: rounds must be >= 1");
  }
  data_.log_q = std::log1p(-data_.p);
  meas_.log_q = std::log1p(-meas_.p);
  data_.advance(0, rng_);
  meas_.advance(0, rng_);
}

const PackedBits& PhenomenologicalSampler::next() {
  assert(round_ <= rounds_);
  difference_.copy_from(measured_);  // meas_{t-1}
  if (round_ < rounds_) {
    const auto t = static_cast<std::uint64_t>(round_);
    const std::uint64_t data_base = t * data_error_.size();
    const std::uint64_t data_end = data_base + data_error_.size();
    while (data_.next < data_end) {
      const auto q = static_cast<int>(data_.next - data_base);
      data_error_.flip(static_cast<std::size_t>(q));
      for (const int check : lattice_.qubit_checks(q)) {
        syndrome_.flip(static_cast<std::size_t>(check));
      }
      data_.advance(data_.next + 1, rng_);
    }
    measured_.copy_from(syndrome_);
    const std::uint64_t meas_base = t * measured_.size();
    const std::uint64_t meas_end = meas_base + measured_.size();
    while (meas_.next < meas_end) {
      measured_.flip(meas_.next - meas_base);
      meas_.advance(meas_.next + 1, rng_);
    }
  } else {
    measured_.copy_from(syndrome_);  // final perfect round
  }
  difference_ ^= measured_;
  ++round_;
  return difference_;
}

SyndromeHistory sample_history(const PlanarLattice& lattice,
                               const NoiseParams& params, Xoshiro256ss& rng) {
  PhenomenologicalSampler sampler(lattice, params, rng);
  SyndromeHistory history;
  const auto total = static_cast<std::size_t>(sampler.total_rounds());
  history.measured.reserve(total);
  history.difference.reserve(total);
  for (std::size_t t = 0; t < total; ++t) {
    history.difference.push_back(sampler.next().to_bits());
    history.measured.push_back(sampler.measured().to_bits());
  }
  history.final_error = sampler.data_error().to_bits();
  return history;
}

std::vector<BitVec> difference_syndromes(const std::vector<BitVec>& measured) {
  std::vector<BitVec> diff;
  diff.reserve(measured.size());
  for (std::size_t t = 0; t < measured.size(); ++t) {
    if (t == 0) {
      diff.push_back(measured[0]);
    } else {
      diff.push_back(xor_of(measured[t], measured[t - 1]));
    }
  }
  return diff;
}

std::vector<BitVec> accumulate_differences(
    const std::vector<BitVec>& difference) {
  std::vector<BitVec> measured;
  measured.reserve(difference.size());
  for (std::size_t t = 0; t < difference.size(); ++t) {
    if (t == 0) {
      measured.push_back(difference[0]);
    } else {
      measured.push_back(xor_of(difference[t], measured[t - 1]));
    }
  }
  return measured;
}

std::vector<PackedBits> packed_layers(const std::vector<BitVec>& layers) {
  std::vector<PackedBits> packed;
  packed.reserve(layers.size());
  for (const auto& layer : layers) packed.push_back(PackedBits::from_bits(layer));
  return packed;
}

int defect_count(const SyndromeHistory& history) {
  int count = 0;
  for (const auto& layer : history.difference) count += weight(layer);
  return count;
}

}  // namespace qec
