#include "sfq/budget.hpp"

#include <cmath>
#include <limits>

#include "sfq/power.hpp"
#include "sfq/unit_netlist.hpp"

namespace qec {

long long DecoderDeployment::protectable_logical_qubits(
    double budget_w) const {
  const double per_qubit = power_per_logical_qubit_w();
  if (per_qubit <= 0.0) return 0;
  const double fit = std::floor(budget_w / per_qubit);
  // Saturate first: converting a double outside long long's range is
  // undefined behaviour (an infinite or 1e300-watt budget caps nothing).
  using Limits = std::numeric_limits<long long>;
  if (std::isnan(fit)) return 0;
  if (fit >= 0x1p63) return Limits::max();
  if (fit < -0x1p63) return Limits::min();
  return static_cast<long long>(fit);
}

DecoderDeployment qecool_deployment(int distance, double freq_hz) {
  DecoderDeployment out;
  out.name = "QECOOL (7-bit Reg)";
  out.power_per_unit_w = qecool_unit_ersfq_power_w(freq_hz);
  out.units_per_logical_qubit = units_per_logical_qubit(distance);
  return out;
}

DecoderDeployment aqec_deployment(int distance, bool extended_to_3d) {
  DecoderDeployment out;
  out.name = "AQEC";
  out.power_per_unit_w = 13.44e-6;  // Table V
  const long long base = static_cast<long long>(2 * distance - 1) *
                         static_cast<long long>(2 * distance - 1);
  out.units_per_logical_qubit = extended_to_3d ? base * 7 : base;
  return out;
}

}  // namespace qec
