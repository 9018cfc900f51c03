// Tests for the versioned binary syndrome trace: round-trips, lane
// reconstruction, and the hard requirement that corrupt or truncated files
// throw TraceError instead of producing garbage.
#include "stream/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StreamConfig small_config() {
  StreamConfig config;
  config.lanes = 4;
  config.distance = 5;
  config.p = 0.03;
  config.rounds = 6;
  config.seed = 99;
  return config;
}

// Lane and round are checked apart: on a 5-lane trace, lane 5 must not
// alias round 1's lane 0, nor lane -1 round 0's last lane.
TEST(StreamTrace, LayerChecksLaneAndRoundSeparately) {
  StreamConfig config = small_config();
  config.lanes = 5;
  SyndromeTrace trace = record_trace(config);
  ASSERT_EQ(trace.rounds(), 7);
  const auto message = [&](int lane, int round) -> std::string {
    try {
      trace.layer(lane, round);
    } catch (const std::out_of_range& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message(5, 0), "syndrome trace: lane 5 out of range [0, 5)");
  EXPECT_EQ(message(-1, 1), "syndrome trace: lane -1 out of range [0, 5)");
  EXPECT_EQ(message(0, 7), "syndrome trace: round 7 out of range [0, 7)");
  EXPECT_EQ(message(0, -1), "syndrome trace: round -1 out of range [0, 7)");
  EXPECT_EQ(message(4, 6), "no exception");

  // A rejected write leaves every layer as it was.
  const SyndromeTrace before = trace;
  PackedBits ones(trace.header().checks);
  for (std::size_t i = 0; i < ones.size(); ++i) ones.set(i);
  EXPECT_THROW(trace.set_layer(5, 0, ones), std::out_of_range);
  EXPECT_THROW(trace.set_layer(-1, 1, ones), std::out_of_range);
  EXPECT_THROW(trace.set_layer(0, 7, ones), std::out_of_range);
  EXPECT_TRUE(trace == before);
}

TEST(StreamTrace, PackUnpackRoundTrip) {
  BitVec bits = {1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1};
  const auto packed = pack_bits(bits);
  EXPECT_EQ(packed.size(), 2u);  // 11 bits -> 2 bytes
  EXPECT_EQ(unpack_bits(packed.data(), bits.size()), bits);
}

TEST(StreamTrace, SaveLoadRoundTrip) {
  const auto trace = record_trace(small_config());
  const std::string path = temp_path("roundtrip.qtrc");
  trace.save(path);
  const auto loaded = SyndromeTrace::load(path);
  EXPECT_TRUE(trace == loaded);
  EXPECT_EQ(loaded.lanes(), 4);
  EXPECT_EQ(loaded.rounds(), 7);  // 6 noisy + 1 perfect
  EXPECT_EQ(loaded.header().seed, 99u);
  EXPECT_DOUBLE_EQ(loaded.header().p_data, 0.03);
  std::remove(path.c_str());
}

TEST(StreamTrace, HistoryReconstructionMatchesRecordedNoise) {
  const StreamConfig config = small_config();
  const auto trace = record_trace(config);
  const PlanarLattice lattice(config.distance);
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    const SyndromeHistory h = trace.history(lane);
    ASSERT_EQ(static_cast<int>(h.difference.size()), trace.rounds());
    PackedBits measured(trace.header().checks);
    for (int t = 0; t < trace.rounds(); ++t) {
      ASSERT_EQ(h.difference[static_cast<std::size_t>(t)], trace.layer(lane, t))
          << "lane " << lane << " round " << t;
      measured ^= h.difference[static_cast<std::size_t>(t)];
    }
    // The last measured round (the XOR of every difference layer) is
    // perfect, so it must equal the syndrome of the recorded ground-truth
    // error.
    ASSERT_EQ(measured.to_bits(), lattice.syndrome(h.final_error));
  }
}

TEST(StreamTrace, LanesDifferAndAreSeedStable) {
  const auto a = record_trace(small_config());
  const auto b = record_trace(small_config());
  EXPECT_TRUE(a == b) << "recording must be a pure function of the config";
  StreamConfig other = small_config();
  other.seed = 100;
  EXPECT_FALSE(a == record_trace(other));
  // At p = 0.03 two lanes sharing a stream would be a glaring RNG bug.
  EXPECT_NE(a.history(0).difference, a.history(1).difference);
}

TEST(StreamTrace, TruncatedFileThrows) {
  const auto trace = record_trace(small_config());
  const std::string path = temp_path("truncated.qtrc");
  trace.save(path);
  auto bytes = read_all(path);
  ASSERT_GT(bytes.size(), 20u);
  bytes.resize(bytes.size() / 2);
  write_all(path, bytes);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  bytes.resize(10);  // shorter than the header
  write_all(path, bytes);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, CorruptPayloadThrows) {
  const auto trace = record_trace(small_config());
  const std::string path = temp_path("corrupt.qtrc");
  trace.save(path);
  auto bytes = read_all(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_all(path, bytes);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, BadMagicAndVersionThrow) {
  const auto trace = record_trace(small_config());
  const std::string path = temp_path("magic.qtrc");
  trace.save(path);
  auto bytes = read_all(path);
  auto tampered = bytes;
  tampered[0] = 'X';
  write_all(path, tampered);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  tampered = bytes;
  tampered[4] = 99;  // unsupported version
  write_all(path, tampered);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, InconsistentDimensionsThrow) {
  const auto trace = record_trace(small_config());
  const std::string path = temp_path("dims.qtrc");
  trace.save(path);
  auto bytes = read_all(path);
  bytes[8] = 7;  // distance 5 -> 7 without touching checks/data counts
  write_all(path, bytes);
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

/// Serializes a hand-crafted v1 trace file: the given header fields, a
/// payload of `payload_bytes` zero bytes, and a *valid* FNV-1a checksum
/// over that payload — so only the header/length validation can reject
/// it, never the checksum. The checksum comes from the production
/// SyndromeTrace::rewrite_payload (the fuzz-mutation entry point), which
/// by contract signs whatever payload is present without validating it.
std::vector<char> craft_trace(std::uint32_t distance, std::uint32_t lanes,
                              std::uint32_t rounds, std::uint32_t checks,
                              std::uint32_t data_qubits,
                              std::size_t payload_bytes) {
  std::vector<std::uint8_t> blob;
  const auto put32 = [&blob](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto put64 = [&blob](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put32(TraceHeader::kMagic);
  put32(TraceHeader::kVersion);
  put32(distance);
  put32(lanes);
  put32(rounds);
  put32(checks);
  put32(data_qubits);
  put64(0);  // seed
  put64(0);  // p_data (0.0 bits)
  put64(0);  // p_meas
  blob.insert(blob.end(), payload_bytes + 8, 0);  // payload + checksum slot
  SyndromeTrace::rewrite_payload(blob);
  return std::vector<char>(blob.begin(), blob.end());
}

TEST(StreamTrace, ChecksumValidButTruncatedPayloadThrows) {
  // d=5: 3-byte layers, 6-byte final errors. The header claims 2 lanes x
  // 4 rounds (2*4*3 + 2*6 = 36 payload bytes) but the file carries only
  // 30 — with a checksum that is *valid over the 30 bytes present*, so a
  // loader that trusts the checksum alone would accept a file missing
  // two syndrome layers. The length check must reject it first.
  const std::string path = temp_path("short_but_checksummed.qtrc");
  write_all(path, craft_trace(5, 2, 4, 20, 41, 30));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  // Same with trailing garbage: 36 expected, 40 present, checksum valid
  // over all 40.
  write_all(path, craft_trace(5, 2, 4, 20, 41, 40));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  // The exact length with a valid checksum loads fine (the crafted
  // all-zero payload is a legal trace).
  write_all(path, craft_trace(5, 2, 4, 20, 41, 36));
  EXPECT_NO_THROW(SyndromeTrace::load(path));
  std::remove(path.c_str());
}

TEST(StreamTrace, MaxU32RoundsThrowsBeforeAllocating) {
  // rounds = 2^32 - 1 with one lane claims a ~12.9 GB payload; the file
  // carries 36 bytes. The loader must reject on the length check without
  // ever sizing a buffer from the header.
  const std::uint32_t max_u32 = 0xFFFFFFFFu;
  const std::string path = temp_path("max_rounds.qtrc");
  write_all(path, craft_trace(5, 1, max_u32, 20, 41, 36));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  // Same for max-u32 lanes, and for both at once (whose layer count
  // approaches 2^64 — the size arithmetic must not wrap on the way to
  // the rejection either).
  write_all(path, craft_trace(5, max_u32, 1, 20, 41, 36));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  write_all(path, craft_trace(5, max_u32, max_u32, 20, 41, 36));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, DegenerateAndInconsistentHeadersThrow) {
  const std::string path = temp_path("degenerate.qtrc");
  // Zero lanes / zero rounds.
  write_all(path, craft_trace(5, 0, 4, 20, 41, 0));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  write_all(path, craft_trace(5, 2, 0, 20, 41, 12));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  // Implausible distances (too small, too large to be a real lattice).
  write_all(path, craft_trace(1, 2, 4, 0, 1, 8));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  write_all(path, craft_trace(2000, 2, 4, 3998000, 7996001, 8));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  // check/data counts that do not match the claimed distance.
  write_all(path, craft_trace(5, 2, 4, 21, 41, 36));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  write_all(path, craft_trace(5, 2, 4, 20, 40, 36));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, WrappingSizeHeaderThrowsInsteadOfAllocating) {
  // Adversarial header: at d=5 (3-byte layers, 6-byte final errors) the
  // payload size 3*lanes*rounds + 6*lanes of these lane/round counts is
  // ~18.4 EB but wraps modulo 2^64 to exactly 41258 — a file that, with
  // unchecked size arithmetic, passes the length and checksum tests and
  // then tries to allocate 6.1e18 layer vectors. The loader must reject it
  // with TraceError before any allocation.
  const std::uint32_t lanes = 1431693603u;
  const std::uint32_t rounds = 4294853784u;
  const std::size_t wrapped_payload = 41258;

  std::vector<std::uint8_t> blob;
  const auto put32 = [&blob](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto put64 = [&blob](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put32(TraceHeader::kMagic);
  put32(TraceHeader::kVersion);
  put32(5);   // distance
  put32(lanes);
  put32(rounds);
  put32(20);  // checks = d*(d-1)
  put32(41);  // data qubits = d*d + (d-1)*(d-1)
  put64(0);   // seed
  put64(0);   // p_data (0.0 bits)
  put64(0);   // p_meas
  blob.insert(blob.end(), wrapped_payload + 8, 0);
  SyndromeTrace::rewrite_payload(blob);

  const std::string path = temp_path("wrap.qtrc");
  write_all(path, std::vector<char>(blob.begin(), blob.end()));
  EXPECT_THROW(SyndromeTrace::load(path), TraceError);
  std::remove(path.c_str());
}

TEST(StreamTrace, SingleBitCorruptionSweepNeverCrashesOrSilentlyLoads) {
  // Deterministic first slice of the ROADMAP fuzzing item: flip every
  // single bit of a small serialized trace. Each mutation must either
  // load and re-serialize to exactly the mutated bytes (bits the format
  // deliberately does not validate — the seed/p_data/p_meas provenance
  // fields) or throw TraceError — never crash, never load as something
  // the file does not say.
  StreamConfig config;
  config.lanes = 2;
  config.distance = 3;
  config.p = 0.05;
  config.rounds = 3;
  config.seed = 5;
  const auto trace = record_trace(config);
  const std::string path = temp_path("bitflip.qtrc");
  const std::string mutated_path = temp_path("bitflip_mut.qtrc");
  trace.save(path);
  const auto bytes = read_all(path);
  ASSERT_GT(bytes.size(), 0u);

  std::size_t loaded_ok = 0, rejected = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto mutated = bytes;
    mutated[bit / 8] =
        static_cast<char>(mutated[bit / 8] ^ (1u << (bit % 8)));
    write_all(mutated_path, mutated);
    try {
      const auto reloaded = SyndromeTrace::load(mutated_path);
      ++loaded_ok;
      reloaded.save(mutated_path);
      ASSERT_EQ(read_all(mutated_path), mutated)
          << "flipping bit " << bit << " was silently altered on load/save";
    } catch (const TraceError&) {
      ++rejected;
    }
  }
  // Exactly the 24 provenance bytes (seed u64, p_data f64, p_meas f64) are
  // informational; every other bit — magic, version, dimensions, payload,
  // padding, checksum — must be caught.
  EXPECT_EQ(loaded_ok, 24u * 8u);
  EXPECT_EQ(rejected, bytes.size() * 8 - 24 * 8);
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

TEST(StreamTrace, RewritePayloadMakesMutatedBytesLoadable) {
  // The fuzz-mutation contract: flip any payload bit, re-sign with
  // rewrite_payload, and the loader accepts the mutated file. Defect bits
  // round-trip to exactly the mutated bytes; padding bits (past `checks`
  // or `data_qubits` in a final partial byte) load but canonicalize back
  // to zero on re-save, because PackedBits::from_bytes masks the tail.
  StreamConfig config;
  config.lanes = 2;
  config.distance = 3;
  config.p = 0.05;
  config.rounds = 3;
  config.seed = 5;
  const auto trace = record_trace(config);
  const std::string path = temp_path("rewrite.qtrc");
  const std::string mutated_path = temp_path("rewrite_mut.qtrc");
  trace.save(path);
  const auto chars = read_all(path);
  const std::vector<std::uint8_t> bytes(chars.begin(), chars.end());

  const std::size_t offset = SyndromeTrace::payload_offset();
  const std::size_t payload_size = SyndromeTrace::payload_size(bytes);
  ASSERT_EQ(offset + payload_size + 8, bytes.size());

  std::size_t exact = 0, canonicalized = 0;
  for (std::size_t bit = 0; bit < payload_size * 8; ++bit) {
    auto mutated = bytes;
    mutated[offset + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    SyndromeTrace::rewrite_payload(mutated);
    write_all(mutated_path,
              std::vector<char>(mutated.begin(), mutated.end()));
    SyndromeTrace reloaded;
    ASSERT_NO_THROW(reloaded = SyndromeTrace::load(mutated_path))
        << "payload bit " << bit << " re-signed but rejected";
    reloaded.save(mutated_path);
    const auto resaved_chars = read_all(mutated_path);
    const std::vector<std::uint8_t> resaved(resaved_chars.begin(),
                                            resaved_chars.end());
    if (resaved == mutated) {
      ++exact;
    } else {
      // Padding bit: dropping it must restore the original bytes.
      const std::vector<std::uint8_t> original(chars.begin(), chars.end());
      ASSERT_EQ(resaved, original)
          << "payload bit " << bit
          << " neither round-tripped nor canonicalized";
      ++canonicalized;
    }
  }
  // d=3: 6 checks per 1-byte layer (2 padding bits), 13 data qubits per
  // 2-byte final error (3 padding bits). 2 lanes x 4 rounds of layers plus
  // 2 final errors.
  const std::size_t padding_bits = 2u * 4u * 2u + 2u * 3u;
  EXPECT_EQ(canonicalized, padding_bits);
  EXPECT_EQ(exact, payload_size * 8 - padding_bits);
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

TEST(StreamTrace, RewritePayloadRejectsForeignBlobs) {
  std::vector<std::uint8_t> blob(10, 0);
  EXPECT_THROW(SyndromeTrace::rewrite_payload(blob), TraceError);
  blob.assign(200, 0);  // long enough, but no QTRC magic
  EXPECT_THROW(SyndromeTrace::rewrite_payload(blob), TraceError);
  EXPECT_THROW(SyndromeTrace::payload_size(blob), TraceError);
}

TEST(StreamTrace, MissingFileThrows) {
  EXPECT_THROW(SyndromeTrace::load(temp_path("does_not_exist.qtrc")),
               TraceError);
}

}  // namespace
}  // namespace qec
