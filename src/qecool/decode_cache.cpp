#include "qecool/decode_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace qec {
namespace {

[[noreturn]] void bad_cache_spec(const std::string& what) {
  throw std::invalid_argument("cache spec: " + what);
}

int parse_cache_int(std::string_view key, std::string_view raw) {
  const std::string text(raw);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < 0 ||
      v > std::numeric_limits<int>::max()) {
    bad_cache_spec("option '" + std::string(key) +
                   "' is not an integer in [0, " +
                   std::to_string(std::numeric_limits<int>::max()) +
                   "]: " + text);
  }
  return static_cast<int>(v);
}

}  // namespace

DecodeCache::DecodeCache(int capacity) : capacity_(std::max(capacity, 0)) {
  slots_.reserve(static_cast<std::size_t>(capacity_));
  if (capacity_ > 0) {
    // Smallest power of two holding 2x capacity keeps probe chains short.
    std::size_t size = 4;
    while (size < static_cast<std::size_t>(capacity_) * 2) size <<= 1;
    table_.assign(size, kEmpty);
    hashes_.assign(size, 0);
    table_mask_ = size - 1;
  }
}

std::size_t DecodeCache::probe(std::uint64_t hash) const {
  std::size_t pos = hash & table_mask_;
  while (table_[pos] != kEmpty && hashes_[pos] != hash) {
    pos = (pos + 1) & table_mask_;
  }
  return pos;
}

void DecodeCache::unlink(std::uint64_t hash) {
  std::size_t hole = probe(hash);
  table_[hole] = kEmpty;
  for (std::size_t pos = (hole + 1) & table_mask_; table_[pos] != kEmpty;
       pos = (pos + 1) & table_mask_) {
    const std::size_t home = hashes_[pos] & table_mask_;
    // The entry at pos may fill the hole only if the hole lies on its
    // probe path, i.e. between its home position and pos (cyclically).
    if (((pos - home) & table_mask_) >= ((pos - hole) & table_mask_)) {
      table_[hole] = table_[pos];
      hashes_[hole] = hashes_[pos];
      table_[pos] = kEmpty;
      hole = pos;
    }
  }
}

const DecodeOutcome* DecodeCache::lookup(
    std::uint64_t hash, const std::vector<std::uint64_t>& key) {
  if (capacity_ == 0) return nullptr;
  const std::size_t pos = probe(hash & hash_mask_);
  if (table_[pos] == kEmpty) return nullptr;
  Slot& slot = slots_[table_[pos]];
  // Full-key compare: a hash collision reads as a miss, never as a wrong
  // replay.
  if (slot.key != key) return nullptr;
  slot.referenced = true;
  return &slot.value;
}

bool DecodeCache::install(std::uint64_t hash,
                          const std::vector<std::uint64_t>& key,
                          const DecodeOutcome& value) {
  if (capacity_ == 0) return false;
  hash &= hash_mask_;
  const std::size_t pos = probe(hash);
  if (table_[pos] != kEmpty) {
    // Same hash already resident: either a re-install of the same key or
    // a collision takeover; either way the slot is rewritten in place.
    // Copy-assignment throughout so the slot's vectors keep their heap
    // buffers — the install hot path stays allocation-free at steady
    // state.
    Slot& slot = slots_[table_[pos]];
    const bool displaced = slot.key != key;
    slot.key = key;
    slot.value = value;
    slot.referenced = true;
    return displaced;
  }
  if (slots_.size() < static_cast<std::size_t>(capacity_)) {
    table_[pos] = static_cast<std::uint32_t>(slots_.size());
    hashes_[pos] = hash;
    slots_.push_back(Slot{hash, key, value, true});
    return false;
  }
  // CLOCK / second-chance: sweep, clearing reference bits, and replace
  // the first slot that was not touched since the hand last passed.
  for (;;) {
    Slot& slot = slots_[hand_];
    if (slot.referenced) {
      slot.referenced = false;
      hand_ = (hand_ + 1) % slots_.size();
      continue;
    }
    unlink(slot.hash);
    slot.hash = hash;
    slot.key = key;
    slot.value = value;
    slot.referenced = true;
    const std::size_t home = probe(hash);
    table_[home] = static_cast<std::uint32_t>(hand_);
    hashes_[home] = hash;
    hand_ = (hand_ + 1) % slots_.size();
    return true;
  }
}

DecodeCacheConfig parse_decode_cache_spec(std::string_view spec) {
  DecodeCacheConfig config;
  if (spec.empty()) return config;

  const auto colon = spec.find(':');
  const std::string_view policy = spec.substr(0, colon);
  std::string_view opts = colon == std::string_view::npos
                              ? std::string_view{}
                              : spec.substr(colon + 1);

  if (policy == "off" || policy == "none") {
    if (!opts.empty()) {
      bad_cache_spec("policy 'off' takes no options, got '" +
                     std::string(opts) + "'");
    }
    config.enabled = false;
    return config;
  }
  if (policy != "on" && policy != "clock") {
    bad_cache_spec("unknown cache policy '" + std::string(policy) +
                   "' (expected off, on, or clock[:entries=N,max_defects=M])");
  }

  while (!opts.empty()) {
    const auto comma = opts.find(',');
    const std::string_view item = opts.substr(0, comma);
    opts = comma == std::string_view::npos ? std::string_view{}
                                          : opts.substr(comma + 1);
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      bad_cache_spec("expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "entries") {
      config.entries = parse_cache_int(key, value);
    } else if (key == "max_defects") {
      config.max_defects = parse_cache_int(key, value);
    } else {
      bad_cache_spec("cache '" + std::string(policy) +
                     "' does not understand '" + std::string(key) +
                     "' (cache options: entries, max_defects)");
    }
  }
  return config;
}

}  // namespace qec
