// Table V: AQEC [Holmes et al. 2020] vs QECOOL at d = 9, p = 0.001, with a
// 1 W power budget in the 4-K stage:
//
//   - p_th (2-D / 3-D): AQEC 5.0% / unknown, QECOOL 6.0% / 1.0%
//   - execution time per layer (max / avg): AQEC 19.8 / 3.93 ns (published),
//     QECOOL 400 / 20.8 ns (measured cycles at 2 GHz -> 0.5 ns per cycle)
//   - power per Unit: AQEC 13.44 uW, QECOOL 2.78 uW (ERSFQ at 2 GHz)
//   - Units per logical qubit: AQEC (2d-1)^2 (x7 for 3-D), QECOOL 2d(d-1)
//   - protectable logical qubits: AQEC ~37, QECOOL 2498
//
//   table5_aqec_comparison [--trials=400] [--threads=N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sfq/budget.hpp"
#include "sfq/power.hpp"
#include "sfq/unit_netlist.hpp"
#include "sim/monte_carlo.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "table5_aqec_comparison",
          "Table V: AQEC vs QECOOL at d = 9 — thresholds, execution time, "
          "power per Unit, and protectable logical qubits in 1 W",
          "  --trials=400          Monte Carlo trials (env QECOOL_TRIALS)\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n")) {
    return 0;
  }
  const int trials = static_cast<int>(qec::trials_override(args, 400));
  const int d = 9;
  const double freq = 2e9;

  qec::bench::print_header("Table V: AQEC vs QECOOL", "Table V (d=9, p=0.001)");

  // Measure QECOOL per-layer execution time at the paper's operating point.
  qec::OnlineConfig online;
  online.cycles_per_round = qec::cycles_per_microsecond(freq);
  auto config = qec::phenomenological_config(d, 0.001, trials);
  config.threads = qec::threads_override(args, 1);
  config.shards = 16;  // fixed schedule: results independent of --threads
  const auto run = qec::run_online_experiment(config, online);
  const double ns_per_cycle = 1e9 / freq;
  const double meas_max_ns = run.layer_cycles.max() * ns_per_cycle;
  const double meas_avg_ns = run.layer_cycles.mean() * ns_per_cycle;

  const auto qecool = qec::qecool_deployment(d, freq);
  const auto aqec = qec::aqec_deployment(d, /*extended_to_3d=*/true);
  const double aqec_exact =
      qec::kFourKelvinBudgetW / aqec.power_per_logical_qubit_w();

  qec::TextTable table({"", "AQEC", "QECOOL (7-bit Reg)"});
  table.add_row({"p_th (2-D / 3-D)", "5.0% / -", "6.0% / 1.0%  (paper)"});
  table.add_row({"exec time per layer Max (ns)", "19.8 (published)",
                 qec::TextTable::fmt(meas_max_ns, 1) + " (meas; paper 400)"});
  table.add_row({"exec time per layer Avg (ns)", "3.93 (published)",
                 qec::TextTable::fmt(meas_avg_ns, 1) + " (meas; paper 20.8)"});
  table.add_row({"power per Unit (uW)",
                 qec::TextTable::fmt(aqec.power_per_unit_w * 1e6, 2),
                 qec::TextTable::fmt(qecool.power_per_unit_w * 1e6, 2)});
  table.add_row({"# Units per logical qubit (d=9)",
                 std::to_string(aqec.units_per_logical_qubit) +
                     "  ((2d-1)^2 x 7)",
                 std::to_string(qecool.units_per_logical_qubit) +
                     "  (2d(d-1))"});
  table.add_row({"directly applicable to 3-D", "No", "Yes"});
  table.add_row(
      {"# protectable logical qubits (1 W)",
       std::to_string(aqec.protectable_logical_qubits(1.0)) + " (paper: 37; " +
           qec::TextTable::fmt(aqec_exact, 1) + " exact)",
       std::to_string(qecool.protectable_logical_qubits(1.0)) +
           " (paper: 2498)"});
  table.print();

  std::printf("\nQECOOL per-layer budget at 2 GHz: %.0f cycles = 1 us; "
              "measured max %.1f ns << 1000 ns, so the decoder keeps up "
              "with the measurement cadence (Section V-D).\n",
              online.cycles_per_round, meas_max_ns);
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("table5_aqec_comparison", e);
}
