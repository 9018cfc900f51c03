// Versioned binary syndrome trace: the record/replay substrate of the
// streaming decode service. A trace holds, for every lane (logical qubit),
// the full difference-syndrome stream of one memory experiment plus the
// ground-truth final error, so noise sampling and decoding are decoupled —
// any stream can be captured once and replayed bit-exactly through any
// engine configuration, thread count, or future decoder.
//
// On-disk layout (little-endian, version 1):
//   header   magic 'QTRC' (u32) | version u32 | distance u32 | lanes u32 |
//            rounds u32 | checks u32 | data_qubits u32 | seed u64 |
//            p_data f64 | p_meas f64
//   payload  rounds x lanes x ceil(checks/8) bytes      (difference layers,
//            round-major — the order the service streams them in)
//            lanes x ceil(data_qubits/8) bytes          (final errors)
//   footer   FNV-1a 64 checksum of the payload (u64)
//
// Bits pack LSB-first within each byte. load() validates the magic,
// version, dimensional consistency (checks/data_qubits must match the
// planar lattice of `distance`), payload length, and checksum, and throws
// TraceError on any mismatch — a corrupt or truncated file never produces
// undefined behaviour, it produces an exception.
//
// The packed payload layout is also the in-memory layout: difference
// layers are held as PackedBits (64 checks per word, LSB-first — see
// surface_code/packed_bits.hpp), so save() emits each layer's words
// little-endian truncated to ceil(checks/8) bytes and load() assembles
// words straight from the payload bytes. Up to d=14 a layer's words live
// inside its PackedBits, so the rounds x lanes layers are one contiguous
// allocation with no per-layer heap block. The streamed hot path (layer()
// -> OnlineStepper::push -> engine Reg) never unpacks byte-per-bit, and
// history() copies the packed layers out as they are.
//
// The slab is raw storage that constructs each slot exactly once, where
// its value is known: zero-filled by the public constructor, copied from
// the payload by load(), or sampled by record_trace() through the
// record-only Recorder, whose lane blocks construct their own slots one
// round at a time (DESIGN.md section 7.2).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {

/// Malformed, corrupt, truncated, or unwritable trace file.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

struct TraceHeader {
  static constexpr std::uint32_t kMagic = 0x43525451;  // "QTRC", LSB first
  static constexpr std::uint32_t kVersion = 1;

  std::uint32_t distance = 0;
  std::uint32_t lanes = 0;
  std::uint32_t rounds = 0;  ///< stored rounds per lane (incl. final perfect)
  std::uint32_t checks = 0;
  std::uint32_t data_qubits = 0;
  /// Provenance of the recorded noise (informational; replay ignores them).
  std::uint64_t seed = 0;
  double p_data = 0.0;
  double p_meas = 0.0;
};

struct StreamConfig;  // record_trace's config (stream/service.hpp)

class SyndromeTrace {
 public:
  SyndromeTrace() = default;

  /// An empty trace with `header.lanes` lanes of `header.rounds` all-zero
  /// layers; fill via set_layer()/set_final_error().
  explicit SyndromeTrace(const TraceHeader& header);

  /// Deep copies. A moved-from trace is empty, like a default one.
  SyndromeTrace(const SyndromeTrace& other);
  SyndromeTrace(SyndromeTrace&& other) noexcept;
  SyndromeTrace& operator=(const SyndromeTrace& other);
  SyndromeTrace& operator=(SyndromeTrace&& other) noexcept;
  ~SyndromeTrace();

  const TraceHeader& header() const { return header_; }
  int lanes() const { return static_cast<int>(header_.lanes); }
  int rounds() const { return static_cast<int>(header_.rounds); }

  /// Difference layer streamed to `lane` in round `round` (sized checks).
  /// Packed — OnlineStepper::push() consumes it without unpacking.
  const PackedBits& layer(int lane, int round) const;
  /// Word-copies into the existing slot (no reallocation).
  void set_layer(int lane, int round, const PackedBits& layer);

  /// Ground-truth accumulated data error of `lane` (sized data_qubits).
  const BitVec& final_error(int lane) const;
  void set_final_error(int lane, BitVec error);

  /// Copies one recorded lane's packed layers into their slots
  /// (history.difference must hold exactly rounds() layers).
  void set_lane(int lane, const SyndromeHistory& history);

  /// Copies `lane`'s packed slots out as a SyndromeHistory — what replay
  /// hands to the offline decoders and the scoring path.
  SyndromeHistory history(int lane) const;

  /// Serializes to `path`; throws TraceError when the file cannot be
  /// written.
  void save(const std::string& path) const;

  /// Deserializes and fully validates `path`; throws TraceError on any
  /// corruption, truncation, or version/dimension mismatch.
  static SyndromeTrace load(const std::string& path);

  /// Byte offset of the payload within a serialized trace blob (the fixed
  /// header size). Exposed for byte-level mutation tooling.
  static std::size_t payload_offset();

  /// Payload byte count of a serialized blob (size minus header and
  /// checksum footer). Throws TraceError when the blob is too short to be
  /// a v1 trace or the magic/version do not match — payload arithmetic on
  /// a non-trace blob is meaningless.
  static std::size_t payload_size(const std::vector<std::uint8_t>& blob);

  /// Re-derives the FNV-1a footer checksum of a serialized trace blob
  /// after in-place payload mutation, so the loader accepts the mutated
  /// bytes. The single entry point every byte-level fuzz mutation goes
  /// through: header and provenance bytes are left untouched, only the
  /// 8 footer bytes are rewritten. Throws TraceError on a blob too short
  /// to be a v1 trace or with a foreign magic/version (same checks as
  /// payload_size). Note this validates nothing else — a mutated header
  /// or a resized payload still gets a consistent checksum and must stand
  /// or fall on load()'s own validation, which is exactly what loader
  /// fuzzing wants.
  static void rewrite_payload(std::vector<std::uint8_t>& blob);

  bool operator==(const SyndromeTrace& other) const;

 private:
  friend SyndromeTrace record_trace(const StreamConfig& config);
  class Recorder;

  /// rounds x lanes, from the header.
  std::size_t num_layers() const;
  std::size_t layer_index(int lane, int round) const;
  /// Allocates the slab for header_ and constructs slot i as make(slot, i)
  /// in slot order. On a throw it destroys the slots already constructed,
  /// frees the slab and leaves the trace empty.
  template <typename Make>
  void construct_layers(Make make);
  /// Destroys every slot and frees the slab.
  void destroy_layers() noexcept;

  TraceHeader header_;
  /// [round][lane], round-major: num_layers() slots, all constructed.
  PackedBits* layers_ = nullptr;
  std::vector<BitVec> final_error_;  ///< [lane]
};

/// record_trace's construction path, reachable only from it. The slab
/// starts with no slot constructed; record_lanes() constructs one lane
/// range's slots and final errors, and disjoint ranges may run
/// concurrently. A range is all or nothing: on a throw record_lanes()
/// destroys the slots it constructed before rethrowing. So a Recorder
/// destroyed unfinished destroys exactly the slots of the ranges that
/// completed.
class SyndromeTrace::Recorder {
 public:
  explicit Recorder(const TraceHeader& header);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Records lanes [first, first + samplers.size()), samplers[i] feeding
  /// lane first + i: round by round, each round's run of slots constructed
  /// in place from the samplers' next() layers, then each lane's final
  /// error. Each lane must be recorded exactly once.
  void record_lanes(int first, std::span<PhenomenologicalSampler> samplers);

  /// The completed trace; throws std::logic_error unless every lane has
  /// been recorded.
  SyndromeTrace finish() &&;

 private:
  TraceHeader header_;
  PackedBits* slab_ = nullptr;          ///< raw until finish()
  std::vector<std::uint8_t> recorded_;  ///< [lane] slots constructed
  std::vector<BitVec> final_error_;     ///< [lane]
};

/// Bit packing used by the trace payload (LSB-first); exposed for tests.
std::vector<std::uint8_t> pack_bits(const BitVec& bits);
BitVec unpack_bits(const std::uint8_t* bytes, std::size_t num_bits);

/// FNV-1a 64 over a byte range; the trace footer checksum.
std::uint64_t fnv1a64(const std::uint8_t* bytes, std::size_t size);

}  // namespace qec
