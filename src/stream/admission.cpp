#include "stream/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "decoder/registry.hpp"
#include "sfq/budget.hpp"

namespace qec {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("admission spec: " + what);
}

}  // namespace

AdmissionConfig parse_admission_spec(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  const DecoderOptions options = DecoderOptions::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));

  AdmissionConfig config;
  if (name == "overflow") {
    config.mode = AdmissionConfig::Mode::kOverflow;
  } else if (name == "pause") {
    config.mode = AdmissionConfig::Mode::kPause;
    // An explicit value is validated, never mistaken for an absent key: a
    // typo like high=0 or low=-2 fails loudly instead of silently
    // selecting the automatic watermark.
    if (const auto high = options.get_int("high")) {
      if (*high < 1) bad_spec("high-water mark must be >= 1");
      config.high_water = *high;
    }
    if (const auto low = options.get_int("low")) {
      if (*low < 0) bad_spec("low-water mark must be >= 0");
      config.low_water = *low;
    }
  } else if (name == "codel") {
    config.mode = AdmissionConfig::Mode::kCodel;
    if (const auto target = options.get_int("target")) {
      if (*target < 1) bad_spec("codel target must be >= 1 round");
      config.target = *target;
    }
    if (const auto interval = options.get_int("interval")) {
      if (*interval < 1) bad_spec("codel interval must be >= 1 round");
      config.interval = *interval;
    }
  } else {
    bad_spec("unknown mode '" + std::string(name) +
             "' (expected overflow, pause, or codel)");
  }
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("mode '" + std::string(name) + "' does not understand " +
             DecoderOptions::join_keys(leftover));
  }
  // Reject orderings that can never resolve, before reg_depth is known.
  if (config.pause() && config.high_water > 0 && config.low_water >= 0 &&
      config.low_water >= config.high_water) {
    bad_spec("low-water mark must be below the high-water mark");
  }
  return config;
}

AdmissionConfig resolve_admission(const AdmissionConfig& config,
                                  int reg_depth) {
  AdmissionConfig resolved = config;
  if (!resolved.pause()) return resolved;
  if (resolved.codel()) {
    // The latency law drives pause decisions; the depth high-water mark
    // stays as the overflow backstop, so codel can never lose a lane
    // that pause mode would have kept. The low-water mark doubles as the
    // drain re-admission depth: the engine cannot pop a base layer until
    // m - b > thv, so a paused lane stalls with a few layers resident and
    // a depth mark (not depth == 0) must thaw it, exactly as in pause
    // mode.
    resolved.high_water = reg_depth;
    resolved.low_water = reg_depth / 2;
    if (resolved.target <= 0) resolved.target = std::max(1, reg_depth / 2);
    if (resolved.interval <= 0) resolved.interval = 2 * reg_depth;
    return resolved;
  }
  if (resolved.high_water <= 0) resolved.high_water = reg_depth;
  if (resolved.low_water < 0) resolved.low_water = reg_depth / 2;
  if (resolved.high_water > reg_depth) {
    bad_spec("high-water mark " + std::to_string(resolved.high_water) +
             " exceeds reg_depth " + std::to_string(reg_depth));
  }
  if (resolved.low_water >= resolved.high_water) {
    bad_spec("low-water mark must be below the high-water mark");
  }
  return resolved;
}

double PoolPowerModel::watts_per_engine() const {
  return qecool_deployment(distance, freq_hz).power_per_logical_qubit_w();
}

double PoolPowerModel::watts() const {
  return static_cast<double>(engines) * watts_per_engine();
}

int PoolPowerModel::max_engines(double budget_w, int distance,
                                double freq_hz) {
  const long long fit = qecool_deployment(distance, freq_hz)
                            .protectable_logical_qubits(budget_w);
  // A pool larger than any realistic lane count is indistinguishable from
  // "unbounded"; clamp so callers can store the answer in an int.
  constexpr long long kCap = 1 << 30;
  return static_cast<int>(fit < 0 ? 0 : (fit > kCap ? kCap : fit));
}

}  // namespace qec
