#include "surface_code/packed_bits.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace qec {

PackedBits PackedBits::from_bits(std::span<const std::uint8_t> bits) {
  PackedBits packed(bits.size());
  packed.assign_bits(bits);
  return packed;
}

PackedBits PackedBits::from_bytes(const std::uint8_t* bytes,
                                  std::size_t num_bits) {
  PackedBits packed(num_bits);
  packed.assign_bytes(bytes);
  return packed;
}

void PackedBits::assign_bytes(const std::uint8_t* bytes) {
  if (words_.empty()) return;
  const std::size_t num_bytes = (bits_ + 7) / 8;
  words_.back() = 0;  // the bytes may end mid-word
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words_.data(), bytes, num_bytes);
  } else {
    std::fill(words_.begin(), words_.end(), 0);
    for (std::size_t k = 0; k < num_bytes; ++k) {
      words_[k >> 3] |= static_cast<std::uint64_t>(bytes[k]) << (8 * (k & 7));
    }
  }
  // A final partial byte may carry stray bits past size(); keep the
  // tail-zero invariant here.
  words_.back() &= tail_mask();
}

void PackedBits::clear_all() { std::fill(words_.begin(), words_.end(), 0); }

void PackedBits::assign_bits(std::span<const std::uint8_t> bits) {
  assert(bits.size() == bits_);
  // One word per 64 bytes, branch-free; the short last word leaves its
  // tail bits zero. On little-endian hosts eight bytes at a time: fold
  // each byte's bits into its lowest bit (any nonzero byte reads as 1),
  // then one multiply gathers byte k's bit into bit k of the top byte.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint8_t* src = bits.data() + w * 64;
    const std::size_t count = std::min<std::size_t>(64, bits_ - w * 64);
    std::uint64_t word = 0;
    std::size_t j = 0;
    for (; kLittle && j + 8 <= count; j += 8) {
      std::uint64_t x;
      std::memcpy(&x, src + j, sizeof x);
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      x &= 0x0101010101010101ULL;
      word |= ((x * 0x0102040810204080ULL) >> 56) << j;
    }
    for (; j < count; ++j) {
      word |= static_cast<std::uint64_t>(src[j] != 0) << j;
    }
    words_[w] = word;
  }
}

void PackedBits::copy_from(const PackedBits& other) {
  assert(other.bits_ == bits_);
  std::copy(other.words_.begin(), other.words_.end(), words_.begin());
}

bool PackedBits::any() const {
  for (const std::uint64_t w : words_) {
    if (w) return true;
  }
  return false;
}

int PackedBits::popcount() const {
  int count = 0;
  for (const std::uint64_t w : words_) count += qec_popcount64(w);
  return count;
}

PackedBits& PackedBits::operator^=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

PackedBits& PackedBits::operator|=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

PackedBits& PackedBits::operator&=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

std::vector<std::uint8_t> PackedBits::to_bits() const {
  std::vector<std::uint8_t> bits(bits_, 0);
  for_each_set([&bits](std::size_t i) { bits[i] = 1; });
  return bits;
}

void PackedBits::append_bytes(std::vector<std::uint8_t>& out) const {
  const std::size_t num_bytes = (bits_ + 7) / 8;
  for (std::size_t k = 0; k < num_bytes; ++k) {
    out.push_back(
        static_cast<std::uint8_t>(words_[k >> 3] >> (8 * (k & 7))));
  }
}

}  // namespace qec
