// Extension experiments (beyond the paper):
//  1. sliding-window MWPM — accuracy vs window size, the software analogue
//     of the paper's thv trade-off (Section III-B);
//  2. decoder-fabric scaling — system bill of materials (JJs, area, power)
//     for whole processors, generalizing Table V.
//
//   ext_window_and_fabric [--trials=400]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "mwpm/windowed_mwpm.hpp"
#include "sfq/fabric.hpp"
#include "sim/monte_carlo.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "ext_window_and_fabric",
          "sliding-window MWPM accuracy vs window size, plus decoder-fabric "
          "bill of materials for whole processors (extensions)",
          "  --trials=400          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n")) {
    return 0;
  }
  const int trials = qec::trials_override(args, 400);
  qec::reject_unread(args);

  qec::bench::print_header(
      "Extension: sliding-window MWPM + decoder-fabric scaling",
      "not in paper — on-line trade-off and system BOM");

  std::printf("--- windowed MWPM at d=7, rounds=14, p=0.015 ---\n");
  qec::TextTable wt({"window", "guard", "logical error rate", "MWPM calls"});
  const qec::ExperimentConfig cfg = [] {
    auto c = qec::phenomenological_config(7, 0.015, 0);
    c.rounds = 14;
    return c;
  }();
  const qec::PlanarLattice lat(cfg.distance);
  struct WinCase {
    int window, guard;
  };
  for (const WinCase wc : {WinCase{4, 1}, WinCase{6, 3}, WinCase{8, 4},
                           WinCase{1000, 0}}) {
    qec::WindowedMwpmDecoder dec({wc.window, wc.guard});
    qec::Xoshiro256ss rng(4242);
    int failures = 0, windows = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const auto h = qec::sample_history(
          lat, {cfg.p_data, cfg.p_meas, cfg.rounds}, rng);
      failures += qec::logical_failure(lat, h, dec.decode(lat, h));
      windows += dec.last_window_count();
    }
    wt.add_row({wc.window >= 1000 ? "batch" : std::to_string(wc.window),
                std::to_string(wc.guard),
                qec::TextTable::sci(static_cast<double>(failures) / trials, 2),
                qec::TextTable::fmt(static_cast<double>(windows) / trials, 1)});
  }
  wt.print();
  std::printf("=> larger windows converge to batch accuracy; the guard "
              "plays the role QECOOL's thv plays in Section III-B.\n\n");

  std::printf("--- decoder fabric scaling (ERSFQ @ 2 GHz) ---\n");
  qec::TextTable ft({"logical qubits", "d", "Units", "GJJ", "area (cm^2)",
                     "power (mW)", "fits 1 W?"});
  for (const auto& [q, d] : std::vector<std::pair<int, int>>{
           {1, 9}, {100, 9}, {1000, 9}, {2498, 9}, {1000, 13}, {1153, 13}}) {
    const auto r = qec::build_fabric({q, d, 2e9});
    ft.add_row({std::to_string(q), std::to_string(d),
                std::to_string(r.units),
                qec::TextTable::fmt(static_cast<double>(r.total_jjs) * 1e-9, 3),
                qec::TextTable::fmt(r.area_mm2 * 1e-2, 1),
                qec::TextTable::fmt(r.ersfq_power_w * 1e3, 2),
                r.fits_power(qec::kFourKelvinBudgetW) ? "yes" : "NO"});
  }
  ft.print();
  std::printf("=> the paper's 2498 d=9 logical qubits need %.2f billion "
              "JJs and ~%.0f cm^2 of SFQ fabric — power fits, fabrication "
              "scale becomes the next constraint.\n",
              static_cast<double>(qec::build_fabric({2498, 9, 2e9}).total_jjs) *
                  1e-9,
              qec::build_fabric({2498, 9, 2e9}).area_mm2 * 1e-2);
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("ext_window_and_fabric", e);
}
