#include "decoder/registry.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "aqec/aqec_decoder.hpp"
#include "decoder/ml_decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "mwpm/windowed_mwpm.hpp"
#include "qecool/qecool_decoder.hpp"
#include "unionfind/uf_decoder.hpp"

namespace qec {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("decoder spec: " + what);
}

/// The options a qecool spec understands, echoed in unknown-key errors so
/// one error message shows the full vocabulary.
constexpr const char* kQecoolOptionsHint =
    " (engine options: reg_depth, thv, nlimit, deprioritize_boundary, "
    "start_at_max_hop)";

QecoolConfig qecool_config(const DecoderOptions& options) {
  QecoolConfig config;
  config.reg_depth = options.get_int("reg_depth", config.reg_depth);
  config.thv = options.get_int("thv", config.thv);
  config.nlimit = options.get_int("nlimit", config.nlimit);
  config.deprioritize_boundary =
      options.get_bool("deprioritize_boundary", config.deprioritize_boundary);
  config.start_at_max_hop =
      options.get_bool("start_at_max_hop", config.start_at_max_hop);
  return config;
}

struct Registry {
  std::mutex mutex;
  std::map<std::string, DecoderFactory, std::less<>> factories;
};

std::map<std::string, DecoderFactory, std::less<>> builtin_factories() {
  std::map<std::string, DecoderFactory, std::less<>> factories;
  factories["qecool"] = [](const DecoderOptions& options) {
    return std::make_unique<BatchQecoolDecoder>(qecool_config(options));
  };
  factories["mwpm"] = [](const DecoderOptions&) {
    return std::make_unique<MwpmDecoder>();
  };
  factories["windowed-mwpm"] = [](const DecoderOptions& options) {
    WindowConfig config;
    config.window = options.get_int("window", config.window);
    config.guard = options.get_int("guard", config.guard);
    return std::make_unique<WindowedMwpmDecoder>(config);
  };
  factories["uf"] = [](const DecoderOptions&) {
    return std::make_unique<UnionFindDecoder>();
  };
  factories["aqec"] = [](const DecoderOptions&) {
    return std::make_unique<AqecDecoder>();
  };
  factories["ml"] = [](const DecoderOptions& options) {
    return std::make_unique<MaximumLikelihoodDecoder>(
        options.get_double("p", 0.01));
  };
  return factories;
}

Registry& registry() {
  static Registry instance{{}, builtin_factories()};
  return instance;
}

}  // namespace

DecoderOptions DecoderOptions::parse(std::string_view text) {
  DecoderOptions options;
  while (!text.empty()) {
    const auto comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      bad_spec("expected key=value, got '" + std::string(item) + "'");
    }
    options.values_[std::string(item.substr(0, eq))] =
        std::string(item.substr(eq + 1));
  }
  return options;
}

std::string DecoderOptions::take(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return {};
  consumed_[it->first] = true;
  return it->second;
}

int DecoderOptions::get_int(std::string_view key, int fallback) const {
  return get_int(key).value_or(fallback);
}

std::optional<int> DecoderOptions::get_int(std::string_view key) const {
  const std::string raw = take(key);
  if (raw.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    bad_spec("option '" + std::string(key) + "' is not an integer: " + raw);
  }
  if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    bad_spec("option '" + std::string(key) + "' is out of int range: " + raw);
  }
  return static_cast<int>(v);
}

double DecoderOptions::get_double(std::string_view key, double fallback) const {
  const std::string raw = take(key);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    bad_spec("option '" + std::string(key) + "' is not a number: " + raw);
  }
  return v;
}

bool DecoderOptions::get_bool(std::string_view key, bool fallback) const {
  const std::string raw = take(key);
  if (raw.empty()) return fallback;
  if (raw == "1" || raw == "true") return true;
  if (raw == "0" || raw == "false") return false;
  bad_spec("option '" + std::string(key) + "' is not a bool: " + raw);
}

std::vector<std::string> DecoderOptions::unconsumed() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (!consumed_.count(key)) keys.push_back(key);
  }
  return keys;
}

std::string DecoderOptions::join_keys(const std::vector<std::string>& keys) {
  std::string joined;
  for (const auto& key : keys) {
    if (!joined.empty()) joined += ", ";
    joined += "'" + key + "'";
  }
  return joined;
}

void register_decoder(const std::string& name, DecoderFactory factory) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<Decoder> make_decoder(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  const std::string_view opts =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  DecoderFactory factory;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      bad_spec("unknown decoder '" + std::string(name) + "'");
    }
    factory = it->second;
  }
  const DecoderOptions options = DecoderOptions::parse(opts);
  auto decoder = factory(options);
  if (!decoder) bad_spec("factory for '" + std::string(name) + "' failed");
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("decoder '" + std::string(name) + "' does not understand " +
             DecoderOptions::join_keys(leftover) +
             (name == "qecool" ? kQecoolOptionsHint : ""));
  }
  return decoder;
}

std::function<std::unique_ptr<Decoder>()> decoder_maker(
    std::string_view spec) {
  make_decoder(spec);  // validate eagerly, before any worker thread exists
  return [spec = std::string(spec)] { return make_decoder(spec); };
}

QecoolConfig online_engine_config(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  if (name != "qecool") {
    bad_spec("online engine spec must name 'qecool', got '" +
             std::string(name) + "'");
  }
  const DecoderOptions options = DecoderOptions::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));
  const QecoolConfig config = qecool_config(options);
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("online engine 'qecool' does not understand " +
             DecoderOptions::join_keys(leftover) + kQecoolOptionsHint);
  }
  return config;
}

std::vector<std::string> registered_decoders() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;
}

}  // namespace qec
