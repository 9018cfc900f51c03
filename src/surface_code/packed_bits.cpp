#include "surface_code/packed_bits.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace qec {

PackedBits::PackedBits(const PackedBits& other) : bits_(other.bits_) {
  if (on_heap()) {
    heap_ = new std::uint64_t[num_words()];
    std::copy_n(other.heap_, num_words(), heap_);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
}

PackedBits::PackedBits(PackedBits&& other) noexcept { steal(other); }

PackedBits& PackedBits::operator=(const PackedBits& other) {
  if (this == &other) return *this;
  if (num_words() == other.num_words()) {
    // The word count picks the storage, so both are inline or both own a
    // heap array of this length: reuse it.
    bits_ = other.bits_;
    std::copy_n(other.data(), num_words(), data());
  } else {
    *this = PackedBits(other);
  }
  return *this;
}

PackedBits& PackedBits::operator=(PackedBits&& other) noexcept {
  if (this == &other) return *this;
  if (on_heap()) delete[] heap_;
  steal(other);
  return *this;
}

void PackedBits::steal(PackedBits& other) noexcept {
  bits_ = other.bits_;
  if (on_heap()) {
    heap_ = other.heap_;
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
  other.bits_ = 0;
  std::fill_n(other.inline_, kInlineWords, 0);
}

PackedBits PackedBits::from_bits(std::span<const std::uint8_t> bits) {
  PackedBits packed(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) packed.set(i);
  }
  return packed;
}

PackedBits PackedBits::from_bytes(const std::uint8_t* bytes,
                                  std::size_t num_bits) {
  PackedBits packed(num_bits);
  packed.assign_bytes(bytes);
  return packed;
}

void PackedBits::assign_bytes(const std::uint8_t* bytes) {
  const std::size_t n = num_words();
  if (n == 0) return;
  std::uint64_t* words = data();
  const std::size_t num_bytes = (bits_ + 7) / 8;
  words[n - 1] = 0;  // the bytes may end mid-word
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words, bytes, num_bytes);
  } else {
    std::fill_n(words, n, 0);
    for (std::size_t k = 0; k < num_bytes; ++k) {
      words[k >> 3] |= static_cast<std::uint64_t>(bytes[k]) << (8 * (k & 7));
    }
  }
  // A final partial byte may carry stray bits past size(); keep the
  // tail-zero invariant here.
  words[n - 1] &= tail_mask();
}

void PackedBits::clear_all() { std::fill_n(data(), num_words(), 0); }

void PackedBits::copy_from(const PackedBits& other) {
  assert(other.bits_ == bits_);
  if (on_heap()) {
    std::copy_n(other.heap_, num_words(), heap_);
  } else {
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
}

int PackedBits::popcount() const {
  const std::uint64_t* words = data();
  int count = 0;
  for (std::size_t w = 0, n = num_words(); w < n; ++w) {
    count += qec_popcount64(words[w]);
  }
  return count;
}

PackedBits& PackedBits::operator^=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  std::uint64_t* words = data();
  const std::uint64_t* src = other.data();
  for (std::size_t w = 0, n = num_words(); w < n; ++w) words[w] ^= src[w];
  return *this;
}

PackedBits& PackedBits::operator|=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  std::uint64_t* words = data();
  const std::uint64_t* src = other.data();
  for (std::size_t w = 0, n = num_words(); w < n; ++w) words[w] |= src[w];
  return *this;
}

PackedBits& PackedBits::operator&=(const PackedBits& other) {
  assert(other.bits_ == bits_);
  std::uint64_t* words = data();
  const std::uint64_t* src = other.data();
  for (std::size_t w = 0, n = num_words(); w < n; ++w) words[w] &= src[w];
  return *this;
}

bool operator==(const PackedBits& a, const PackedBits& b) {
  return a.bits_ == b.bits_ &&
         std::equal(a.data(), a.data() + a.num_words(), b.data());
}

std::vector<std::uint8_t> PackedBits::to_bits() const {
  std::vector<std::uint8_t> bits(bits_, 0);
  for_each_set([&bits](std::size_t i) { bits[i] = 1; });
  return bits;
}

void PackedBits::append_bytes(std::vector<std::uint8_t>& out) const {
  const std::uint64_t* words = data();
  const std::size_t num_bytes = (bits_ + 7) / 8;
  for (std::size_t k = 0; k < num_bytes; ++k) {
    out.push_back(static_cast<std::uint8_t>(words[k >> 3] >> (8 * (k & 7))));
  }
}

}  // namespace qec
