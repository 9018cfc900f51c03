// String-keyed decoder construction: one place where CLI tools, benches,
// the sweep driver, and the sharded Monte Carlo engine build decoder
// instances. Each worker thread of a sharded run constructs its own decoder
// through this interface, so stateful decoders never need to be shared.
//
// A spec is "name" or "name:key=value,key=value,..." — e.g.
//   "qecool", "qecool:reg_depth=4,start_at_max_hop=1",
//   "windowed-mwpm:window=4,guard=2", "ml:p=0.05".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "decoder/decoder.hpp"
#include "qecool/config.hpp"

namespace qec {

/// Parsed key=value options of a decoder spec. Factories must consume every
/// key they understand via the typed getters; make_decoder rejects specs
/// with leftover (unconsumed) keys so typos fail loudly.
class DecoderOptions {
 public:
  /// Parses "key=value,key=value". Throws std::invalid_argument on
  /// malformed input (empty key, missing '=').
  static DecoderOptions parse(std::string_view text);

  /// Typed getters; consume the key. Throw std::invalid_argument naming
  /// the key when the value does not parse as the requested type (for
  /// integers: also when it lies outside the int range).
  int get_int(std::string_view key, int fallback) const;
  /// get_int without a fallback: nullopt when the key is absent.
  std::optional<int> get_int(std::string_view key) const;
  double get_double(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;
  std::string get_string(std::string_view key, std::string fallback) const;

  /// Keys never consumed by any getter (set after factory construction).
  std::vector<std::string> unconsumed() const;

  /// "'key1', 'key2'" — formats unconsumed() for an error message, naming
  /// every offending option so one round-trip fixes the whole spec.
  /// Shared by the decoder, scheduler-policy, and admission spec parsers.
  static std::string join_keys(const std::vector<std::string>& keys);

 private:
  std::string take(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> consumed_;
};

using DecoderFactory =
    std::function<std::unique_ptr<Decoder>(const DecoderOptions&)>;

/// Registers `factory` under `name` (overwrites an existing entry, so tests
/// and downstream code can shadow built-ins). Thread-safe.
void register_decoder(const std::string& name, DecoderFactory factory);

/// Constructs a decoder from a spec ("name" or "name:k=v,..."). Throws
/// std::invalid_argument for unknown names, malformed option lists, or
/// options the named decoder does not understand.
std::unique_ptr<Decoder> make_decoder(std::string_view spec);

/// Convenience: a thunk that builds a fresh instance of `spec` on each call
/// (what the sharded Monte Carlo engine hands to its worker threads). The
/// spec is validated eagerly, so errors surface before any thread spawns.
std::function<std::unique_ptr<Decoder>()> decoder_maker(std::string_view spec);

/// Sorted names of all registered decoders (built-ins plus extensions).
std::vector<std::string> registered_decoders();

/// Parses a spec into the engine configuration of an *on-line capable*
/// decoder — what the streaming decode service (src/stream) builds one lane
/// engine from. Only "qecool" (the paper's hardware) supports incremental
/// per-round stepping, so any other name throws std::invalid_argument, as
/// do unknown options ("qecool:reg_depth=4,thv=3" is the typical shape).
QecoolConfig online_engine_config(std::string_view spec);

}  // namespace qec
