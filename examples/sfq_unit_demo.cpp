// SFQ hardware demo: build the Unit's race-logic priority arbiter from
// Table I cells in the behavioural pulse simulator and race spikes through
// it, then report the Unit's physical budget (JJs, area, power) — the
// hardware story of Section IV condensed into one runnable example.
//
//   ./sfq_unit_demo
#include <cstdio>

#include "common/cli.hpp"
#include "sfq/budget.hpp"
#include "sfq/power.hpp"
#include "sfq/pulse_sim.hpp"
#include "sfq/unit_netlist.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "sfq_unit_demo",
                       "build the Unit's race-logic priority arbiter from "
                       "Table I cells and race spikes through it, then "
                       "report the Unit's physical budget",
                       "")) {
    return 0;
  }
  std::printf("-- race-logic prioritization (Section IV-B) --\n");
  static const char* kPortNames[4] = {"West", "East", "North", "South"};

  // Case 1: simultaneous spikes on all four ports; the deliberate delay
  // skew makes West win.
  {
    qec::PulseSimulator sim;
    const auto arb = qec::build_priority_arbiter(sim);
    for (int i = 0; i < 4; ++i) sim.inject(arb.port[i], 0.0);
    sim.run();
    std::printf("4 simultaneous spikes -> %d winner pulse (West wins by "
                "priority), %llu pulse events simulated\n",
                sim.pulse_count(arb.winner),
                static_cast<unsigned long long>(sim.events_processed()));
  }
  // Case 2: a genuinely earlier spike on the lowest-priority port wins.
  {
    qec::PulseSimulator sim;
    const auto arb = qec::build_priority_arbiter(sim);
    sim.inject(arb.port[3], 0.0);
    sim.inject(arb.port[0], 200.0);
    sim.run();
    std::printf("%s spike 200 ps earlier -> %d winner pulse "
                "(race logic = arrival time first, priority on ties)\n",
                kPortNames[3], sim.pulse_count(arb.winner));
  }

  std::printf("\n-- Unit budget (Section IV-C / Table II) --\n");
  const auto budget = qec::unit_budget();
  std::printf("one Unit: %d JJs, %.3f mm^2, %.0f mA bias, %.0f ps critical "
              "path (max clock %.2f GHz)\n",
              budget.jjs, budget.area_um2 * 1e-6, budget.bias_ma,
              budget.critical_path_ps, qec::unit_max_frequency_hz() / 1e9);
  std::printf("module JJ breakdown:\n");
  for (const auto& m : qec::unit_modules()) {
    std::printf("  %-22s %4d JJs (%5.1f mA)\n", std::string(m.name).c_str(),
                m.published_jjs, m.published_bias_ma);
  }

  std::printf("\n-- power (Section V-C) --\n");
  std::printf("RSFQ (static-dominated): %.0f uW/Unit -> infeasible in a "
              "1 W 4-K budget at scale\n",
              qec::qecool_unit_rsfq_power_w() * 1e6);
  for (double ghz : {0.5, 1.0, 2.0}) {
    const auto dep = qec::qecool_deployment(9, ghz * 1e9);
    std::printf("ERSFQ @ %.1f GHz: %.2f uW/Unit, %lld protectable d=9 "
                "logical qubits in 1 W\n",
                ghz, dep.power_per_unit_w * 1e6,
                dep.protectable_logical_qubits(qec::kFourKelvinBudgetW));
  }
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("sfq_unit_demo", e);
}
