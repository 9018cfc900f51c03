// Cryogenic power budgeting: how many logical qubits fit the 4-K stage of a
// dilution refrigerator for a given code distance, decoder clock, and
// power budget — the deployment question behind the paper's Table V and its
// headline claim of ~2500 protected logical qubits.
//
//   ./power_budget [--budget=1.0] [--ghz=2] [--dmin=5 --dmax=13]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sfq/budget.hpp"
#include "sfq/power.hpp"
#include "sfq/unit_netlist.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "power_budget",
          "how many logical qubits fit the 4-K-stage power budget at each "
          "code distance (the Table V question, generalized)",
          "  --budget=1.0          4-K power budget in watts\n"
          "  --ghz=2.0             decoder clock in GHz\n"
          "  --dmin=5              smallest code distance\n"
          "  --dmax=13             largest code distance\n")) {
    return 0;
  }
  const double budget = args.get_double_or("budget", qec::kFourKelvinBudgetW);
  const double ghz = args.get_double_or("ghz", 2.0);
  const int dmin = static_cast<int>(args.get_int_or("dmin", 5));
  const int dmax = static_cast<int>(args.get_int_or("dmax", 13));
  qec::reject_unread(args);

  std::printf("4-K stage budget: %.2f W, decoder clock %.1f GHz\n", budget,
              ghz);
  std::printf("one QECOOL Unit: RSFQ %.0f uW (infeasible), ERSFQ %.2f uW\n\n",
              qec::qecool_unit_rsfq_power_w() * 1e6,
              qec::qecool_unit_ersfq_power_w(ghz * 1e9) * 1e6);

  qec::TextTable table({"d", "Units/logical qubit", "power/logical qubit (uW)",
                        "protectable logical qubits", "physical data qubits"});
  for (int d = dmin; d <= dmax; d += 2) {
    const auto dep = qec::qecool_deployment(d, ghz * 1e9);
    const long long qubits = dep.protectable_logical_qubits(budget);
    // Both error sectors: d^2 + (d-1)^2 data qubits per logical qubit.
    const long long data = static_cast<long long>(d) * d + (d - 1) * (d - 1);
    table.add_row({std::to_string(d),
                   std::to_string(dep.units_per_logical_qubit),
                   qec::TextTable::fmt(dep.power_per_logical_qubit_w() * 1e6, 1),
                   std::to_string(qubits),
                   std::to_string(qubits * data)});
  }
  table.print();

  const auto aqec3d = qec::aqec_deployment(9, true);
  std::printf("\nfor comparison, AQEC (NISQ+) extended to 3-D at d=9 protects "
              "%lld logical qubits in the same budget.\n",
              aqec3d.protectable_logical_qubits(budget));
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("power_budget", e);
}
