#include "stream/trace.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <system_error>
#include <utility>

namespace qec {
namespace {

[[noreturn]] void bad_trace(const std::string& what) {
  throw TraceError("syndrome trace: " + what);
}

std::size_t packed_size(std::size_t num_bits) { return (num_bits + 7) / 8; }

// All header fields cross the file boundary through these two helpers, so
// the on-disk layout is fixed little-endian regardless of host order.
template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  std::uint64_t raw = 0;
  static_assert(sizeof(T) <= sizeof(raw));
  std::memcpy(&raw, &value, sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(raw >> (8 * i)));
  }
}

template <typename T>
T get_le(const std::uint8_t* bytes) {
  std::uint64_t raw = 0;
  static_assert(sizeof(T) <= sizeof(raw));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    raw |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  T value;
  std::memcpy(&value, &raw, sizeof(T));
  return value;
}

constexpr std::size_t kHeaderBytes = 4 * 7 + 8 + 8 + 8;  // see trace.hpp

/// The whole file in one sized read; a file without a size (a pipe, say)
/// is read as a stream instead.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad_trace("cannot open '" + path + "'");
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  blob.resize(static_cast<std::size_t>(in.gcount()));
  return blob;
}

/// Raw storage for `n` layer slots, none constructed.
PackedBits* allocate_slots(std::size_t n) {
  return n == 0 ? nullptr : std::allocator<PackedBits>().allocate(n);
}

void free_slots(PackedBits* slots, std::size_t n) {
  if (slots != nullptr) std::allocator<PackedBits>().deallocate(slots, n);
}

}  // namespace

std::vector<std::uint8_t> pack_bits(const BitVec& bits) {
  std::vector<std::uint8_t> bytes(packed_size(bits.size()), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

BitVec unpack_bits(const std::uint8_t* bytes, std::size_t num_bits) {
  BitVec bits(num_bits, 0);
  for (std::size_t i = 0; i < num_bits; ++i) {
    bits[i] = static_cast<std::uint8_t>((bytes[i / 8] >> (i % 8)) & 1u);
  }
  return bits;
}

std::uint64_t fnv1a64(const std::uint8_t* bytes, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename Make>
void SyndromeTrace::construct_layers(Make make) {
  const std::size_t n = num_layers();
  PackedBits* slots = allocate_slots(n);
  std::size_t built = 0;
  try {
    for (; built < n; ++built) make(slots + built, built);
  } catch (...) {
    std::destroy_n(slots, built);
    free_slots(slots, n);
    header_ = TraceHeader{};
    throw;
  }
  layers_ = slots;
}

void SyndromeTrace::destroy_layers() noexcept {
  std::destroy_n(layers_, num_layers());
  free_slots(layers_, num_layers());
  layers_ = nullptr;
}

SyndromeTrace::SyndromeTrace(const TraceHeader& header) : header_(header) {
  final_error_.assign(header.lanes, BitVec(header.data_qubits, 0));
  construct_layers([&](PackedBits* slot, std::size_t) {
    ::new (slot) PackedBits(header.checks);
  });
}

SyndromeTrace::SyndromeTrace(const SyndromeTrace& other)
    : header_(other.header_), final_error_(other.final_error_) {
  construct_layers([&](PackedBits* slot, std::size_t i) {
    ::new (slot) PackedBits(other.layers_[i]);
  });
}

SyndromeTrace::SyndromeTrace(SyndromeTrace&& other) noexcept
    : header_(std::exchange(other.header_, {})),
      layers_(std::exchange(other.layers_, nullptr)),
      final_error_(std::move(other.final_error_)) {}

SyndromeTrace& SyndromeTrace::operator=(const SyndromeTrace& other) {
  if (this != &other) *this = SyndromeTrace(other);
  return *this;
}

SyndromeTrace& SyndromeTrace::operator=(SyndromeTrace&& other) noexcept {
  if (this == &other) return *this;
  destroy_layers();
  header_ = std::exchange(other.header_, {});
  layers_ = std::exchange(other.layers_, nullptr);
  final_error_ = std::move(other.final_error_);
  other.final_error_.clear();
  return *this;
}

SyndromeTrace::~SyndromeTrace() { destroy_layers(); }

std::size_t SyndromeTrace::num_layers() const {
  return static_cast<std::size_t>(header_.rounds) * header_.lanes;
}

std::size_t SyndromeTrace::layer_index(int lane, int round) const {
  const std::size_t i = static_cast<std::size_t>(round) * header_.lanes +
                        static_cast<std::size_t>(lane);
  if (i >= num_layers()) {
    throw std::out_of_range("syndrome trace: no such layer");
  }
  return i;
}

const PackedBits& SyndromeTrace::layer(int lane, int round) const {
  return layers_[layer_index(lane, round)];
}

void SyndromeTrace::set_layer(int lane, int round, const PackedBits& layer) {
  if (layer.size() != header_.checks) bad_trace("layer size mismatch");
  layers_[layer_index(lane, round)].copy_from(layer);
}

void SyndromeTrace::set_layer(int lane, int round, const BitVec& layer) {
  if (layer.size() != header_.checks) bad_trace("layer size mismatch");
  layers_[layer_index(lane, round)].assign_bits(layer);
}

const BitVec& SyndromeTrace::final_error(int lane) const {
  return final_error_.at(static_cast<std::size_t>(lane));
}

void SyndromeTrace::set_final_error(int lane, BitVec error) {
  if (error.size() != header_.data_qubits) {
    bad_trace("final error size mismatch");
  }
  final_error_.at(static_cast<std::size_t>(lane)) = std::move(error);
}

void SyndromeTrace::set_lane(int lane, const SyndromeHistory& history) {
  if (history.difference.size() != header_.rounds) {
    bad_trace("lane history has wrong round count");
  }
  for (int t = 0; t < rounds(); ++t) {
    set_layer(lane, t, history.difference[static_cast<std::size_t>(t)]);
  }
  set_final_error(lane, history.final_error);
}

SyndromeHistory SyndromeTrace::history(int lane) const {
  // Cold path: the replay-scoring bridge unpacks to the byte-per-bit
  // SyndromeHistory shape the offline decoders and scorers consume.
  SyndromeHistory h;
  h.difference.reserve(header_.rounds);
  for (int t = 0; t < rounds(); ++t) {
    h.difference.push_back(layer(lane, t).to_bits());
  }
  h.measured = accumulate_differences(h.difference);
  h.final_error = final_error(lane);
  return h;
}

bool SyndromeTrace::operator==(const SyndromeTrace& other) const {
  return header_.distance == other.header_.distance &&
         header_.lanes == other.header_.lanes &&
         header_.rounds == other.header_.rounds &&
         header_.checks == other.header_.checks &&
         header_.data_qubits == other.header_.data_qubits &&
         header_.seed == other.header_.seed &&
         header_.p_data == other.header_.p_data &&
         header_.p_meas == other.header_.p_meas &&
         std::equal(layers_, layers_ + num_layers(), other.layers_) &&
         final_error_ == other.final_error_;
}

void SyndromeTrace::save(const std::string& path) const {
  std::vector<std::uint8_t> payload;
  payload.reserve(num_layers() * packed_size(header_.checks) +
                  final_error_.size() * packed_size(header_.data_qubits));
  // Layers are already packed in the payload's exact layout (LSB-first,
  // 64-bit words little-endian == LSB-first bytes): emit them directly.
  std::for_each_n(layers_, num_layers(), [&](const PackedBits& layer) {
    layer.append_bytes(payload);
  });
  for (const auto& error : final_error_) {
    const auto packed = pack_bits(error);
    payload.insert(payload.end(), packed.begin(), packed.end());
  }

  std::vector<std::uint8_t> blob;
  blob.reserve(kHeaderBytes + payload.size() + 8);
  put_le<std::uint32_t>(blob, TraceHeader::kMagic);
  put_le<std::uint32_t>(blob, TraceHeader::kVersion);
  put_le<std::uint32_t>(blob, header_.distance);
  put_le<std::uint32_t>(blob, header_.lanes);
  put_le<std::uint32_t>(blob, header_.rounds);
  put_le<std::uint32_t>(blob, header_.checks);
  put_le<std::uint32_t>(blob, header_.data_qubits);
  put_le<std::uint64_t>(blob, header_.seed);
  put_le<double>(blob, header_.p_data);
  put_le<double>(blob, header_.p_meas);
  blob.insert(blob.end(), payload.begin(), payload.end());
  put_le<std::uint64_t>(blob, fnv1a64(payload.data(), payload.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) bad_trace("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) bad_trace("short write to '" + path + "'");
}

std::size_t SyndromeTrace::payload_offset() { return kHeaderBytes; }

std::size_t SyndromeTrace::payload_size(const std::vector<std::uint8_t>& blob) {
  if (blob.size() < kHeaderBytes + 8) bad_trace("blob too short to rewrite");
  if (get_le<std::uint32_t>(blob.data()) != TraceHeader::kMagic) {
    bad_trace("bad magic (not a trace blob)");
  }
  if (get_le<std::uint32_t>(blob.data() + 4) != TraceHeader::kVersion) {
    bad_trace("unsupported version in blob");
  }
  return blob.size() - kHeaderBytes - 8;
}

void SyndromeTrace::rewrite_payload(std::vector<std::uint8_t>& blob) {
  const std::size_t size = payload_size(blob);  // validates magic/version
  const std::uint64_t sum = fnv1a64(blob.data() + kHeaderBytes, size);
  for (std::size_t i = 0; i < 8; ++i) {
    blob[kHeaderBytes + size + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

SyndromeTrace SyndromeTrace::load(const std::string& path) {
  const std::vector<std::uint8_t> blob = read_file(path);
  if (blob.size() < kHeaderBytes + 8) bad_trace("truncated header");

  const std::uint8_t* p = blob.data();
  const auto magic = get_le<std::uint32_t>(p);
  const auto version = get_le<std::uint32_t>(p + 4);
  if (magic != TraceHeader::kMagic) bad_trace("bad magic (not a trace file)");
  if (version != TraceHeader::kVersion) {
    bad_trace("unsupported version " + std::to_string(version));
  }
  TraceHeader header;
  header.distance = get_le<std::uint32_t>(p + 8);
  header.lanes = get_le<std::uint32_t>(p + 12);
  header.rounds = get_le<std::uint32_t>(p + 16);
  header.checks = get_le<std::uint32_t>(p + 20);
  header.data_qubits = get_le<std::uint32_t>(p + 24);
  header.seed = get_le<std::uint64_t>(p + 28);
  header.p_data = get_le<double>(p + 36);
  header.p_meas = get_le<double>(p + 44);

  const auto d = static_cast<std::uint64_t>(header.distance);
  if (d < 2 || d > 1000) bad_trace("implausible distance");
  if (header.checks != d * (d - 1) ||
      header.data_qubits != d * d + (d - 1) * (d - 1)) {
    bad_trace("check/data counts inconsistent with distance");
  }
  if (header.lanes == 0 || header.rounds == 0) {
    bad_trace("empty lane or round count");
  }

  // Size arithmetic is bounded by the actual file size before any multiply
  // can wrap: a crafted header with huge lanes x rounds must fail the
  // length check here, never reach an allocation.
  const std::uint64_t avail = blob.size() - kHeaderBytes - 8;
  const std::uint64_t layer_bytes = packed_size(header.checks);
  const std::uint64_t error_bytes = packed_size(header.data_qubits);
  const std::uint64_t num_layers =
      static_cast<std::uint64_t>(header.rounds) * header.lanes;
  if (num_layers > avail / layer_bytes ||
      static_cast<std::uint64_t>(header.lanes) * error_bytes >
          avail - num_layers * layer_bytes) {
    bad_trace("payload length mismatch (truncated or padded file)");
  }
  const std::uint64_t payload_bytes =
      num_layers * layer_bytes + header.lanes * error_bytes;
  if (payload_bytes != avail) {
    bad_trace("payload length mismatch (truncated or padded file)");
  }

  const std::uint8_t* payload = p + kHeaderBytes;
  const auto stored_sum = get_le<std::uint64_t>(payload + payload_bytes);
  if (fnv1a64(payload, payload_bytes) != stored_sum) {
    bad_trace("checksum mismatch (corrupt payload)");
  }

  SyndromeTrace trace;
  trace.header_ = header;
  const std::uint8_t* cursor = payload;
  // Each slot is constructed once, straight from its payload bytes — no
  // zero pass first, no per-bit loop.
  trace.construct_layers([&](PackedBits* slot, std::size_t) {
    ::new (slot) PackedBits(PackedBits::from_bytes(cursor, header.checks));
    cursor += layer_bytes;
  });
  trace.final_error_.reserve(header.lanes);
  for (std::uint32_t lane = 0; lane < header.lanes; ++lane) {
    trace.final_error_.push_back(unpack_bits(cursor, header.data_qubits));
    cursor += error_bytes;
  }
  return trace;
}

SyndromeTrace::Recorder::Recorder(const TraceHeader& header)
    : header_(header), recorded_(header.lanes, 0), final_error_(header.lanes) {
  slab_ = allocate_slots(static_cast<std::size_t>(header.rounds) *
                         header.lanes);
}

SyndromeTrace::Recorder::~Recorder() {
  if (slab_ == nullptr) return;
  const std::size_t lanes = header_.lanes;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!recorded_[lane]) continue;
    for (std::size_t t = 0; t < header_.rounds; ++t) {
      std::destroy_at(slab_ + t * lanes + lane);
    }
  }
  free_slots(slab_, header_.rounds * lanes);
}

void SyndromeTrace::Recorder::record_lanes(
    int first, std::span<PhenomenologicalSampler> samplers) {
  const std::size_t lanes = header_.lanes;
  const std::size_t n = samplers.size();
  const auto begin = static_cast<std::size_t>(first);
  if (first < 0 || begin + n > lanes) {
    throw std::logic_error("syndrome trace: lane range out of bounds");
  }
  std::size_t built = 0;  // slots constructed by this call, round-major
  try {
    // One round of the whole range at a time: each write is one
    // contiguous run of n slots, and the slab's pages are first touched
    // here, by the range's own thread.
    for (std::size_t t = 0; t < header_.rounds; ++t) {
      PackedBits* row = slab_ + t * lanes + begin;
      for (std::size_t i = 0; i < n; ++i, ++built) {
        ::new (row + i) PackedBits(samplers[i].next());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      final_error_[begin + i] = samplers[i].data_error().to_bits();
    }
  } catch (...) {
    for (std::size_t k = 0; k < built; ++k) {
      std::destroy_at(slab_ + (k / n) * lanes + begin + k % n);
    }
    throw;
  }
  std::fill_n(recorded_.begin() + static_cast<std::ptrdiff_t>(begin), n, 1);
}

SyndromeTrace SyndromeTrace::Recorder::finish() && {
  if (std::find(recorded_.begin(), recorded_.end(), 0) != recorded_.end()) {
    throw std::logic_error("syndrome trace: finished with a lane unrecorded");
  }
  SyndromeTrace trace;
  trace.header_ = header_;
  trace.layers_ = std::exchange(slab_, nullptr);
  trace.final_error_ = std::move(final_error_);
  return trace;
}

}  // namespace qec
