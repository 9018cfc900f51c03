// Property tests for PackedBits (src/surface_code/packed_bits.hpp): every
// word-parallel operation is checked against the naive byte-per-bit
// reference on random vectors, with deliberate emphasis on sizes that are
// NOT multiples of 64 (the tail-word masking is where packed bit vectors
// rot). Also pins the layout contract — append_bytes() must produce the
// exact bytes pack_bits() produces, because the QTRC payload format
// (docs/trace_format.md) is defined by that packing.
#include "surface_code/packed_bits.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <utility>
#include <vector>

#include "stream/trace.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

// The awkward sizes: empty, sub-word, word-aligned, word+1, the d=9
// engine grid (72 checks), multi-word with a partial tail, and both sides
// of the inline/heap storage split at 3 words (192 bits).
const std::size_t kSizes[] = {0,   1,   7,   63,  64,  65,  72,  100, 128,
                              130, 191, 192, 193, 256, 257, 1000};

static_assert(sizeof(PackedBits) == 32,
              "bit count plus three inline words (or a heap pointer)");

BitVec random_bits(std::size_t n, std::mt19937& rng, double density = 0.5) {
  std::bernoulli_distribution bit(density);
  BitVec v(n, 0);
  for (auto& b : v) b = bit(rng) ? 1 : 0;
  return v;
}

int reference_weight(const BitVec& v) {
  int w = 0;
  for (auto b : v) w += b ? 1 : 0;
  return w;
}

TEST(PackedBits, RoundTripsByteVectorsAtAwkwardSizes) {
  std::mt19937 rng(7);
  for (std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      const BitVec ref = random_bits(n, rng);
      const PackedBits packed = PackedBits::from_bits(ref);
      ASSERT_EQ(packed.size(), n);
      EXPECT_EQ(packed.to_bits(), ref) << "size " << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(packed.test(i), ref[i] != 0) << "size " << n << " bit " << i;
      }
    }
  }
}

TEST(PackedBits, FromBitsReadsEveryNonzeroByteAsOne) {
  // Each single-bit byte value, at every position and across word tails,
  // must read as 1, and must not leak into its neighbours.
  std::mt19937 rng(5);
  for (std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      BitVec raw = random_bits(n, rng, 0.3);
      for (auto& b : raw) {
        if (b) b = static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      if (trial == 0) std::fill(raw.begin(), raw.end(), 0xff);
      const PackedBits packed = PackedBits::from_bits(raw);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(packed.test(i), raw[i] != 0) << "size " << n << " bit " << i;
      }
      EXPECT_EQ(packed.popcount(),
                static_cast<int>(std::count_if(raw.begin(), raw.end(),
                                               [](auto b) { return b != 0; })));
    }
  }
}

TEST(PackedBits, PopcountAnyNoneMatchReference) {
  std::mt19937 rng(11);
  for (std::size_t n : kSizes) {
    for (double density : {0.0, 0.02, 0.5, 1.0}) {
      const BitVec ref = random_bits(n, rng, density);
      const PackedBits packed = PackedBits::from_bits(ref);
      const int w = reference_weight(ref);
      EXPECT_EQ(packed.popcount(), w) << "size " << n;
      EXPECT_EQ(packed.any(), w > 0);
      EXPECT_EQ(packed.none(), w == 0);
    }
  }
}

TEST(PackedBits, BitwiseOpsMatchReference) {
  std::mt19937 rng(13);
  for (std::size_t n : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      const BitVec a = random_bits(n, rng);
      const BitVec b = random_bits(n, rng);
      PackedBits px = PackedBits::from_bits(a);
      PackedBits po = PackedBits::from_bits(a);
      PackedBits pa = PackedBits::from_bits(a);
      const PackedBits pb = PackedBits::from_bits(b);
      px ^= pb;
      po |= pb;
      pa &= pb;
      BitVec rx(n, 0), ro(n, 0), ra(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        rx[i] = a[i] ^ b[i];
        ro[i] = a[i] | b[i];
        ra[i] = a[i] & b[i];
      }
      EXPECT_EQ(px.to_bits(), rx) << "xor, size " << n;
      EXPECT_EQ(po.to_bits(), ro) << "or, size " << n;
      EXPECT_EQ(pa.to_bits(), ra) << "and, size " << n;
      // XOR must also preserve the tail-zero invariant observables.
      EXPECT_EQ(px.popcount(), reference_weight(rx));
      EXPECT_EQ(px == PackedBits::from_bits(rx), true);
    }
  }
}

TEST(PackedBits, ForEachSetVisitsExactlyTheSetBitsInOrder) {
  std::mt19937 rng(19);
  for (std::size_t n : kSizes) {
    const BitVec ref = random_bits(n, rng, 0.2);
    const PackedBits packed = PackedBits::from_bits(ref);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (ref[i]) expect.push_back(i);
    }
    std::vector<std::size_t> got;
    packed.for_each_set([&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, expect) << "size " << n;
  }
}

TEST(PackedBits, MutatorsMatchReference) {
  std::mt19937 rng(23);
  const std::size_t n = 130;
  BitVec ref = random_bits(n, rng);
  PackedBits packed = PackedBits::from_bits(ref);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (int step = 0; step < 500; ++step) {
    const std::size_t i = pick(rng);
    switch (step % 3) {
      case 0:
        packed.set(i);
        ref[i] = 1;
        break;
      case 1:
        packed.reset(i);
        ref[i] = 0;
        break;
      default:
        packed.flip(i);
        ref[i] ^= 1;
        break;
    }
    ASSERT_EQ(packed.test(i), ref[i] != 0);
  }
  EXPECT_EQ(packed.to_bits(), ref);
  packed.clear_all();
  EXPECT_TRUE(packed.none());
  EXPECT_EQ(packed.size(), n);
}

TEST(PackedBits, AssignAndCopyReuseStorage) {
  std::mt19937 rng(29);
  for (std::size_t n : {std::size_t{72}, std::size_t{100}}) {
    const BitVec a = random_bits(n, rng);
    const BitVec b = random_bits(n, rng);
    PackedBits packed = PackedBits::from_bits(a);
    EXPECT_EQ(packed.to_bits(), a);
    packed = PackedBits::from_bits(b);
    EXPECT_EQ(packed.to_bits(), b);
    PackedBits other(n);
    other.copy_from(packed);
    EXPECT_EQ(other, packed);
  }
}

// Copy and move, constructed and assigned, across every inline/heap
// pairing (192 bits is the last inline size) and between sizes of equal
// word count: the result always equals the byte-per-bit reference, a
// copy's source is untouched, and a moved-from vector is empty and
// reusable.
TEST(PackedBits, CopyAndMoveAcrossTheInlineHeapSplit) {
  std::mt19937 rng(41);
  const std::size_t sizes[] = {72, 100, 191, 192, 193, 256, 313};
  for (const std::size_t n : sizes) {
    const BitVec ref = random_bits(n, rng);
    const PackedBits src = PackedBits::from_bits(ref);

    PackedBits copied(src);
    EXPECT_EQ(copied.to_bits(), ref) << "copy-construct " << n;
    PackedBits source = src;
    PackedBits moved(std::move(source));
    EXPECT_EQ(moved.to_bits(), ref) << "move-construct " << n;
    EXPECT_EQ(source.size(), 0u);
    EXPECT_EQ(source.num_words(), 0u);
    EXPECT_TRUE(source.to_bits().empty());
    EXPECT_EQ(source, PackedBits());

    for (const std::size_t m : sizes) {
      const BitVec old_ref = random_bits(m, rng);
      PackedBits target = PackedBits::from_bits(old_ref);
      target = src;
      EXPECT_EQ(target.to_bits(), ref) << "copy-assign " << m << " <- " << n;
      EXPECT_EQ(src.to_bits(), ref);
      target.flip(0);  // the copy owns its words
      EXPECT_EQ(src.to_bits(), ref);

      PackedBits into = PackedBits::from_bits(old_ref);
      PackedBits from = src;
      into = std::move(from);
      EXPECT_EQ(into.to_bits(), ref) << "move-assign " << m << " <- " << n;
      EXPECT_EQ(from.size(), 0u);
      // A moved-from vector takes a new value of any size.
      from = PackedBits::from_bits(old_ref);
      EXPECT_EQ(from.to_bits(), old_ref);
    }
  }
}

TEST(PackedBits, SelfAssignmentKeepsTheValue) {
  std::mt19937 rng(43);
  for (const std::size_t n : {std::size_t{100}, std::size_t{257}}) {
    const BitVec ref = random_bits(n, rng);
    PackedBits packed = PackedBits::from_bits(ref);
    PackedBits& alias = packed;
    packed = alias;
    EXPECT_EQ(packed.to_bits(), ref) << "self-copy " << n;
    packed = std::move(alias);
    EXPECT_EQ(packed.to_bits(), ref) << "self-move " << n;
  }
}

TEST(PackedBits, VectorGrowthRelocatesEveryElement) {
  // push_back reallocates several times; each relocation moves inline and
  // heap elements alike and must keep every value.
  std::mt19937 rng(47);
  std::vector<BitVec> refs;
  std::vector<PackedBits> packed;
  for (int i = 0; i < 40; ++i) {
    const std::size_t n = kSizes[static_cast<std::size_t>(i) % std::size(kSizes)];
    refs.push_back(random_bits(n, rng));
    packed.push_back(PackedBits::from_bits(refs.back()));
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(packed[i].to_bits(), refs[i]) << "element " << i;
  }
  const std::vector<PackedBits> copy = packed;
  EXPECT_EQ(copy, packed);
  packed.erase(packed.begin());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(packed[i].to_bits(), refs[i + 1]) << "after erase " << i;
  }
}

TEST(PackedBits, ByteSerializationMatchesTracePayloadPacking) {
  std::mt19937 rng(31);
  for (std::size_t n : kSizes) {
    const BitVec ref = random_bits(n, rng);
    const PackedBits packed = PackedBits::from_bits(ref);

    // append_bytes must be byte-identical to the format-defining packer.
    std::vector<std::uint8_t> bytes;
    packed.append_bytes(bytes);
    EXPECT_EQ(bytes, pack_bits(ref)) << "size " << n;

    // ...and from_bytes must invert it.
    const PackedBits loaded =
        PackedBits::from_bytes(bytes.data(), n);
    EXPECT_EQ(loaded, packed) << "size " << n;
    EXPECT_EQ(loaded.to_bits(), unpack_bits(bytes.data(), n));
  }
}

TEST(PackedBits, FromBytesMasksStrayPaddingBits) {
  // 10 bits occupy 2 bytes; the top 6 bits of the second byte are padding
  // and must not leak into the vector (they would corrupt popcount/any).
  const std::uint8_t bytes[] = {0xff, 0xff};
  const PackedBits packed = PackedBits::from_bytes(bytes, 10);
  EXPECT_EQ(packed.popcount(), 10);
  EXPECT_EQ(packed.word(0), 0x3ffULL);
}

TEST(PackedBits, PauliFrameHelpersMatchByteVersions) {
  std::mt19937 rng(37);
  const std::size_t n = 41;  // d = 5 data qubits
  const BitVec a = random_bits(n, rng);
  const BitVec b = random_bits(n, rng);
  const PackedBits pa = PackedBits::from_bits(a);
  const PackedBits pb = PackedBits::from_bits(b);
  EXPECT_EQ(weight(pa), weight(a));
  EXPECT_EQ(is_zero(pa), is_zero(a));
  EXPECT_EQ(xor_of(pa, pb).to_bits(), xor_of(a, b));
  PackedBits acc = pa;
  xor_into(pb, acc);
  EXPECT_EQ(acc, xor_of(pa, pb));
}

}  // namespace
}  // namespace qec
