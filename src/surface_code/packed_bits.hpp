// Word-packed bit vector: the integer-only hot-path representation of
// difference-syndrome layers and Pauli frames. The streamed datapath
// (trace -> lane stepper -> QECOOL engine Reg scans) touches every bit of
// every layer of every lane each round; byte-per-bit vectors spend a load,
// a compare, and a branch per ancilla, where the SFQ hardware the paper
// describes operates on whole registers at once. PackedBits stores 64
// ancillas per word so XOR, occupancy scans, and defect counting become
// one word op per 64 bits (std::popcount / countr_zero where available,
// portable SWAR fallbacks otherwise — see qec_popcount64 below).
//
// Layout contract: bit i lives in word i/64 at bit position i%64 (LSB
// first). Byte k of the little-endian word stream therefore holds bits
// [8k, 8k+8) LSB-first — exactly the QTRC trace payload packing
// (docs/trace_format.md), so a packed layer serializes by emitting its
// words little-endian, truncated to ceil(bits/8) bytes, and deserializes
// by assembling words from bytes. No byte-per-bit unpack on either side.
//
// Invariant: tail bits past size() in the last word are always zero, so
// any()/popcount()/operator== never need masking.
//
// Storage: a vector of up to kInlineWords (3) words — 192 bits — lives
// inside the object; a longer one owns one heap array. Three words hold
// every syndrome layer up to d=14 (d(d-1) checks; 156 at the paper's
// largest distance, d=13) and every data frame up to d=10, so a trace of
// lanes x rounds layers is one contiguous allocation and an engine's Reg
// allocates nothing per layer. sizeof(PackedBits) is 32 bytes: the bit
// count plus a union of the inline words and the heap pointer; the word
// count is derived from the bit count, which also selects the storage.
// Unused inline words are always zero.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

// Bit-op backends. QEC_PORTABLE_BITOPS (CMake option, CI-exercised) forces
// the portable SWAR paths; otherwise prefer C++20 <bit>, then the GCC/Clang
// builtins. All three backends are branch-free and bit-exact.
#if !defined(QEC_PORTABLE_BITOPS)
#include <bit>
#if defined(__cpp_lib_bitops) && __cpp_lib_bitops >= 201907L
#define QEC_BITOPS_STD 1
#elif defined(__GNUC__) || defined(__clang__)
#define QEC_BITOPS_BUILTIN 1
#endif
#endif

namespace qec {

/// Portable SWAR popcount (Hacker's Delight 5-1). Always available under
/// this name regardless of the configured backend: it is the reference
/// implementation the fuzz bit-ops oracle (src/fuzz/oracle.cpp) compares
/// the selected backend against on every trace word.
inline int qec_popcount64_swar(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Portable SWAR count-trailing-zeros of a nonzero word: isolate the lowest
/// set bit and popcount the mask below it. Reference twin of
/// qec_countr_zero64 for the fuzz bit-ops oracle.
inline int qec_countr_zero64_swar(std::uint64_t x) {
  return qec_popcount64_swar((x & (~x + 1)) - 1);
}

/// Population count of one 64-bit word.
inline int qec_popcount64(std::uint64_t x) {
#if defined(QEC_BITOPS_STD)
  return std::popcount(x);
#elif defined(QEC_BITOPS_BUILTIN)
  return __builtin_popcountll(x);
#else
  return qec_popcount64_swar(x);
#endif
}

/// Index of the lowest set bit of a nonzero 64-bit word.
inline int qec_countr_zero64(std::uint64_t x) {
  assert(x != 0);
#if defined(QEC_BITOPS_STD)
  return std::countr_zero(x);
#elif defined(QEC_BITOPS_BUILTIN)
  return __builtin_ctzll(x);
#else
  return qec_countr_zero64_swar(x);
#endif
}

class PackedBits {
 public:
  PackedBits() = default;

  /// `num_bits` zeroed bits.
  explicit PackedBits(std::size_t num_bits) : bits_(num_bits) {
    if (on_heap()) heap_ = new std::uint64_t[num_words()]();
  }

  /// Copies allocate only when the source is longer than the inline
  /// capacity. A moved-from PackedBits is empty (size() == 0, no storage),
  /// like a default-constructed one; it may be assigned to or destroyed.
  PackedBits(const PackedBits& other);
  PackedBits(PackedBits&& other) noexcept;
  PackedBits& operator=(const PackedBits& other);
  PackedBits& operator=(PackedBits&& other) noexcept;
  ~PackedBits() {
    if (on_heap()) delete[] heap_;
  }

  /// Packs a byte-per-bit vector (any nonzero byte reads as 1).
  static PackedBits from_bits(std::span<const std::uint8_t> bits);

  /// Unpacks ceil(num_bits/8) LSB-first bytes — the QTRC payload layout.
  static PackedBits from_bytes(const std::uint8_t* bytes,
                               std::size_t num_bits);

  /// Overwrites with ceil(size()/8) LSB-first bytes — from_bytes into an
  /// existing same-sized vector (no reallocation).
  void assign_bytes(const std::uint8_t* bytes);

  std::size_t size() const { return bits_; }
  std::size_t num_words() const { return word_count(bits_); }
  std::uint64_t word(std::size_t w) const {
    assert(w < num_words());
    return data()[w];
  }

  /// Whole-word mutator. The value must respect the tail-zero invariant —
  /// callers pass words read from a same-sized PackedBits (or zero).
  void set_word(std::size_t w, std::uint64_t value) {
    assert(w < num_words());
    assert(w + 1 < num_words() || (value & ~tail_mask()) == 0);
    data()[w] = value;
  }

  bool test(std::size_t i) const {
    assert(i < bits_);
    return (data()[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) {
    assert(i < bits_);
    data()[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void reset(std::size_t i) {
    assert(i < bits_);
    data()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void flip(std::size_t i) {
    assert(i < bits_);
    data()[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// All bits -> 0 (size unchanged).
  void clear_all();

  /// Overwrites with a same-sized byte-per-bit vector (no reallocation).
  void assign_bits(std::span<const std::uint8_t> bits);

  /// Word-copy of a same-sized source (no reallocation).
  void copy_from(const PackedBits& other);

  bool any() const {
    if (!on_heap()) {
      // Unused inline words are zero: OR all of them, no loop bound.
      std::uint64_t bits = 0;
      for (const std::uint64_t w : inline_) bits |= w;
      return bits != 0;
    }
    for (std::size_t w = 0, n = num_words(); w < n; ++w) {
      if (heap_[w]) return true;
    }
    return false;
  }
  bool none() const { return !any(); }
  /// Set entries — the packed weight().
  int popcount() const;

  /// XOR/OR/AND with a same-sized operand, word-parallel.
  PackedBits& operator^=(const PackedBits& other);
  PackedBits& operator|=(const PackedBits& other);
  PackedBits& operator&=(const PackedBits& other);

  friend bool operator==(const PackedBits& a, const PackedBits& b);
  friend bool operator!=(const PackedBits& a, const PackedBits& b) {
    return !(a == b);
  }

  /// Byte-per-bit copy (the cold-path bridge back to BitVec consumers).
  std::vector<std::uint8_t> to_bits() const;

  /// Appends ceil(size()/8) LSB-first bytes — the exact QTRC payload
  /// encoding of this layer (inverse of from_bytes).
  void append_bytes(std::vector<std::uint8_t>& out) const;

  /// Calls f(index) for every set bit in ascending order.
  template <typename F>
  void for_each_set(F&& f) const {
    const std::uint64_t* words = data();
    for (std::size_t w = 0, n = num_words(); w < n; ++w) {
      std::uint64_t word = words[w];
      while (word) {
        const int b = qec_countr_zero64(word);
        f((w << 6) + static_cast<std::size_t>(b));
        word &= word - 1;  // clear lowest set bit
      }
    }
  }

 private:
  static constexpr std::size_t kInlineWords = 3;

  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }
  /// Mask selecting the valid bits of the last word (all-ones when the
  /// size is a multiple of 64 or zero).
  std::uint64_t tail_mask() const {
    const std::size_t rem = bits_ & 63;
    return rem ? (std::uint64_t{1} << rem) - 1 : ~std::uint64_t{0};
  }

  bool on_heap() const { return bits_ > 64 * kInlineWords; }
  std::uint64_t* data() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : inline_; }
  /// Takes other's storage and leaves it empty; *this must own none.
  void steal(PackedBits& other) noexcept;

  std::size_t bits_ = 0;
  union {
    std::uint64_t inline_[kInlineWords] = {};  ///< bits_ <= 192
    std::uint64_t* heap_;                      ///< bits_ > 192
  };
};

}  // namespace qec
