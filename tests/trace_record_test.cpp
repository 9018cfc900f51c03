// Tests for how a SyndromeTrace's layer slots come to exist: record_trace
// constructs them in lane blocks, one round at a time, and must equal a
// lane-by-lane reference at every lane count and thread count; the raw
// slab keeps copy, move, assignment and equality meaning what they did;
// and a construction that throws part way (a heap-sized layer's
// allocation, d >= 15) destroys exactly the slots it built. The last
// property is checked by counting live allocations through a replaced
// global operator new that can be armed to fail once.
#include "stream/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "noise/phenomenological.hpp"
#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<long> g_live_allocations{0};
/// Allocations left before the armed one fails; negative = disarmed.
std::atomic<long> g_fail_countdown{-1};

}  // namespace

void* operator new(std::size_t size) {
  if (g_fail_countdown.load(std::memory_order_relaxed) >= 0 &&
      g_fail_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    throw std::bad_alloc();
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

// The replaced operator new above allocates with malloc, so free is the
// matching release; GCC cannot see that pairing and would warn.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace qec {
namespace {

std::string saved_bytes(const SyndromeTrace& trace, const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  trace.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

StreamConfig record_config(int lanes, int distance) {
  StreamConfig config;
  config.lanes = lanes;
  config.distance = distance;
  config.p = 0.05;
  config.rounds = 3;
  config.seed = 4242;
  return config;
}

/// What record_trace must equal: each lane's lane_rng stream through its
/// own sampler, one lane at a time, every layer written by set_layer.
SyndromeTrace reference_record(const StreamConfig& config) {
  const PlanarLattice lattice(config.distance);
  TraceHeader header;
  header.distance = static_cast<std::uint32_t>(config.distance);
  header.lanes = static_cast<std::uint32_t>(config.lanes);
  header.rounds = static_cast<std::uint32_t>(config.rounds + 1);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  header.seed = config.seed;
  header.p_data = config.p;
  header.p_meas = config.p;
  SyndromeTrace trace(header);
  for (int lane = 0; lane < config.lanes; ++lane) {
    Xoshiro256ss rng = lane_rng(config, lane, config.rounds);
    PhenomenologicalSampler sampler(
        lattice, {config.p, config.p, config.rounds}, rng);
    for (int t = 0; t < sampler.total_rounds(); ++t) {
      trace.set_layer(lane, t, sampler.next());
    }
    trace.set_final_error(lane, sampler.data_error().to_bits());
  }
  return trace;
}

// 1 and 255 lanes are one block; 256 fills it; 257 and 600 add an uneven
// last block; 4097 hits the 16-block cap (blocks of 257, the last 242).
TEST(TraceRecord, LaneBlocksEqualTheLaneByLaneReference) {
  for (const int lanes : {1, 255, 256, 257, 600, 4097}) {
    StreamConfig config = record_config(lanes, 3);
    const SyndromeTrace reference = reference_record(config);
    std::string first_bytes;
    for (const int threads : {1, 3, 4}) {
      config.threads = threads;
      const SyndromeTrace trace = record_trace(config);
      EXPECT_TRUE(trace == reference)
          << lanes << " lanes at " << threads << " threads";
      const std::string bytes = saved_bytes(trace, "blocks.qtrc");
      if (threads == 1) {
        first_bytes = bytes;
      } else {
        EXPECT_EQ(bytes, first_bytes)
            << lanes << " lanes: threads " << threads << " vs 1";
      }
    }
  }
}

// d = 9 layers live inside their PackedBits; d = 15 layers (210 checks)
// each own a heap array.
class TraceStorage : public ::testing::TestWithParam<int> {};

TEST_P(TraceStorage, SaveLoadRoundTripsEveryLayer) {
  StreamConfig config = record_config(7, GetParam());
  config.rounds = 5;
  const SyndromeTrace trace = record_trace(config);
  const std::string path =
      std::string(::testing::TempDir()) + "/storage_roundtrip.qtrc";
  trace.save(path);
  const SyndromeTrace loaded = SyndromeTrace::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded == trace);
  int defects = 0;
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (int t = 0; t < trace.rounds(); ++t) {
      ASSERT_EQ(loaded.layer(lane, t), trace.layer(lane, t));
      defects += trace.layer(lane, t).popcount();
    }
    ASSERT_EQ(loaded.final_error(lane), trace.final_error(lane));
  }
  EXPECT_GT(defects, 0) << "an all-zero trace would round-trip trivially";
}

TEST_P(TraceStorage, CopyMoveAssignAndCompare) {
  const SyndromeTrace original = record_trace(record_config(5, GetParam()));
  PackedBits flipped = original.layer(2, 1);
  flipped.flip(0);

  // Copies are deep.
  SyndromeTrace copy(original);
  EXPECT_TRUE(copy == original);
  copy.set_layer(2, 1, flipped);
  EXPECT_FALSE(copy == original);
  EXPECT_EQ(copy.layer(2, 1), flipped);
  EXPECT_NE(original.layer(2, 1), flipped);

  // A move takes the slots; the moved-from trace is empty.
  SyndromeTrace moved(std::move(copy));
  EXPECT_EQ(moved.layer(2, 1), flipped);
  EXPECT_TRUE(copy == SyndromeTrace());
  EXPECT_EQ(copy.lanes(), 0);

  // Copy assignment over a trace of another shape, and onto itself.
  SyndromeTrace assigned(record_trace(record_config(3, 5)));
  assigned = original;
  EXPECT_TRUE(assigned == original);
  const SyndromeTrace& alias = assigned;
  assigned = alias;
  EXPECT_TRUE(assigned == original);

  // Move assignment over a populated trace, and onto itself.
  assigned = std::move(moved);
  EXPECT_EQ(assigned.layer(2, 1), flipped);
  EXPECT_TRUE(moved == SyndromeTrace());
  SyndromeTrace& self = assigned;
  assigned = std::move(self);
  EXPECT_EQ(assigned.layer(2, 1), flipped);

  // operator== sees the header, every layer and every final error.
  SyndromeTrace other_error(original);
  BitVec error = original.final_error(4);
  error[0] ^= 1;
  other_error.set_final_error(4, error);
  EXPECT_FALSE(other_error == original);
  TraceHeader header = original.header();
  EXPECT_TRUE(SyndromeTrace(header) == SyndromeTrace(header));
  header.seed += 1;
  EXPECT_FALSE(SyndromeTrace(header) == SyndromeTrace(original.header()));
  EXPECT_FALSE(SyndromeTrace(original.header()) == original);

  EXPECT_THROW(original.layer(0, original.rounds()), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeapLayers, TraceStorage,
                         ::testing::Values(9, 15),
                         ::testing::PrintToStringParamName());

/// Runs `make` with the allocation `countdown` allocations ahead armed to
/// fail; returns whether it threw std::bad_alloc. Every allocation the
/// attempt made must be freed again, whether it threw or not.
template <typename Make>
bool fails_cleanly(long countdown, const Make& make) {
  const long live = g_live_allocations.load();
  bool threw = false;
  g_fail_countdown.store(countdown);
  try {
    make();
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  g_fail_countdown.store(-1);
  EXPECT_EQ(g_live_allocations.load(), live)
      << "allocation " << countdown << " failing leaked or double-freed";
  return threw;
}

/// Fails each of several allocations of `make` in turn, spread over the
/// allocations one unarmed run of it performs.
template <typename Make>
void expect_every_failure_unwinds(const char* path, const Make& make) {
  const long before = g_allocations.load();
  make();
  const long total = g_allocations.load() - before;
  for (const long countdown :
       {0L, 1L, total / 4, total / 2, 3 * total / 4, total - 1}) {
    EXPECT_TRUE(fails_cleanly(countdown, make))
        << path << ": allocation " << countdown << " of " << total;
  }
}

// 600 lanes at d = 15 are three lane blocks of heap-sized layers: a failed
// allocation in one block leaves that block's partial rounds, the other
// blocks' finished lanes and the untouched rest of the slab to unwind.
TEST(TraceRecord, EveryConstructionPathUnwindsExactlyWhatItBuilt) {
  StreamConfig config = record_config(600, 15);
  config.threads = 4;
  const SyndromeTrace trace = record_trace(config);  // also warms the pool
  const std::string path =
      std::string(::testing::TempDir()) + "/unwind.qtrc";
  trace.save(path);

  expect_every_failure_unwinds("record_trace", [&] { record_trace(config); });
  expect_every_failure_unwinds("copy", [&] { SyndromeTrace copy(trace); });
  expect_every_failure_unwinds(
      "zero-filled", [&] { SyndromeTrace zeros(trace.header()); });
  expect_every_failure_unwinds("load", [&] { SyndromeTrace::load(path); });
  std::remove(path.c_str());
  EXPECT_TRUE(record_trace(config) == trace);
}

// A record too large to hold fails naming the lanes, the rounds and the
// bytes it needs: a size past size_t before anything is allocated, and a
// failed allocation as the same std::bad_alloc with a message.
TEST(TraceRecord, UnaffordableRecordNamesItsSize) {
  const auto message = [](const StreamConfig& config) -> std::string {
    try {
      record_trace(config);
    } catch (const std::bad_alloc& e) {
      return e.what();
    }
    return "no exception";
  };
  StreamConfig huge = record_config(std::numeric_limits<int>::max(), 3);
  huge.rounds = std::numeric_limits<int>::max() - 1;
  const long live = g_live_allocations.load();
  EXPECT_EQ(message(huge),
            "stream: cannot record 2147483647 lanes x 2147483646 rounds: the "
            "trace needs more than 18446744073709551615 bytes");
  EXPECT_EQ(g_live_allocations.load(), live);

  // 600 lanes x 4 stored rounds of d = 15 layers: 210 checks take a
  // 32-byte slot plus a 32-byte heap array each.
  // Fail the record's last allocation, a lane's final error. (Its first
  // ones build the lattice, before the slab is sized; and under
  // AddressSanitizer the heap layers' array new bypasses the counting
  // operator new, so "halfway" would land in the lattice there.)
  const StreamConfig config = record_config(600, 15);
  record_trace(config);  // warms the thread pool
  const long before = g_allocations.load();
  record_trace(config);
  g_fail_countdown.store(g_allocations.load() - before - 1);
  const std::string failed = message(config);
  g_fail_countdown.store(-1);
  EXPECT_EQ(failed,
            "stream: cannot record 600 lanes x 3 rounds: out of memory (the "
            "trace needs at least 153600 bytes)");
}

}  // namespace
}  // namespace qec
