// Fig 7: physical vs logical error rate of on-line QECOOL when the decoder
// is clocked at 500 MHz, 1 GHz and 2 GHz with a 1 us measurement interval.
// Slow clocks overflow the 7-entry Reg at larger code distances (the
// curves collapse toward break-even); at 2 GHz the paper reads p_th ~ 1.0%.
//
// Also reports the Reg-depth ablation (4 vs 7 entries) at 2 GHz.
//
//   fig7_online_frequency [--trials=400] [--dmax=13] [--threads=N]
//                         [--csv=fig7.csv]
#include <climits>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "fig7_online_frequency",
          "Fig 7: on-line QECOOL accuracy at 500 MHz / 1 GHz / 2 GHz with a "
          "1 us measurement interval, plus the Reg-depth ablation",
          "  --trials=400          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --dmax=13             largest code distance\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n"
          "  --csv=FILE            write the sweep CSV to FILE\n")) {
    return 0;
  }
  const int trials = qec::trials_override(args, 400);
  // The grid starts at d = 5, so a smaller --dmax would run nothing.
  const int dmax = qec::int_flag_in(args, "dmax", 13, 5, INT_MAX);
  const int threads = qec::threads_override(args, 1);
  const std::string csv = args.get_or("csv", "");
  qec::reject_unread(args);

  qec::bench::print_header(
      "Fig 7: on-line QECOOL accuracy vs decoder clock frequency",
      "Fig 7(a)-(c); buffer overflow at 500 MHz / 1 GHz for large d; "
      "p_th ~ 1.0% at 2 GHz");

  // The paper sweeps 500 MHz / 1 GHz / 2 GHz. Our cycle model is ~2x
  // lighter per layer than the paper's (see DESIGN.md), so the overflow
  // collapse the paper sees at 500 MHz appears here at a proportionally
  // lower clock — the extra 250 MHz panel makes the phenomenon explicit at
  // our calibration.
  qec::SweepGrid grid;
  for (double hz : {250e6, 500e6, 1e9, 2e9}) {
    qec::OnlineConfig online;
    online.cycles_per_round = qec::cycles_per_microsecond(hz);
    const double mhz = hz / 1e6;
    const std::string label = mhz >= 1000
                                  ? qec::TextTable::fmt(mhz / 1000, 0) + " GHz"
                                  : qec::TextTable::fmt(mhz, 0) + " MHz";
    grid.variants.push_back(qec::online_variant(label, online));
  }
  grid.ps = {0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02};
  for (int d = 5; d <= dmax; d += 2) grid.distances.push_back(d);
  grid.trials = trials;
  grid.threads = threads;

  const double last_p = grid.ps.back();
  const auto result = qec::run_sweep(
      grid, csv, [last_p](const qec::SweepCell& cell) {
        if (cell.p == last_p) {
          std::fprintf(stderr, "  %s d=%d done\n", cell.variant.c_str(),
                       cell.distance);
        }
      });

  for (const auto& variant : grid.variants) {
    std::printf("--- decoder clock %s (budget %.0f cycles / layer) ---\n",
                variant.label.c_str(), variant.online->cycles_per_round);
    std::vector<std::string> header = {"d"};
    for (double p : grid.ps) header.push_back("p=" + qec::TextTable::fmt(p, 4));
    header.push_back("overflow@p=0.01");
    qec::TextTable table(header);

    for (int d : grid.distances) {
      std::vector<std::string> row = {std::to_string(d)};
      for (double p : grid.ps) {
        row.push_back(qec::TextTable::sci(
            result.find(variant.label, d, p)->result.logical_error_rate, 2));
      }
      row.push_back(qec::TextTable::fmt(
          result.find(variant.label, d, 0.01)->overflow_rate(), 3));
      table.add_row(row);
    }
    table.print();
    const auto th = result.threshold(variant.label);
    std::printf("estimated p_th @ %s: %s\n\n", variant.label.c_str(),
                th ? qec::TextTable::fmt(*th, 4).c_str() : "n/a");
  }

  // Ablation: Reg margin (paper uses 7 entries "with some margin"; the
  // minimum to hold the thv window is 4).
  std::printf("--- ablation: Reg depth 7 vs 4 at a stressed 250 MHz clock, "
              "p = 0.01 ---\n");
  qec::SweepGrid ab_grid;
  qec::OnlineConfig deep, shallow;
  deep.cycles_per_round = shallow.cycles_per_round =
      qec::cycles_per_microsecond(250e6);
  shallow.engine.reg_depth = 4;
  ab_grid.variants.push_back(qec::online_variant("Reg=7", deep));
  ab_grid.variants.push_back(qec::online_variant("Reg=4", shallow));
  for (int d = 9; d <= dmax; d += 2) ab_grid.distances.push_back(d);
  ab_grid.ps = {0.01};
  ab_grid.trials = trials;
  ab_grid.threads = threads;
  const auto ab_result = qec::run_sweep(ab_grid);

  qec::TextTable ab({"d", "overflow (Reg=7)", "overflow (Reg=4)"});
  for (int d : ab_grid.distances) {
    ab.add_row({std::to_string(d),
                qec::TextTable::fmt(
                    ab_result.find("Reg=7", d, 0.01)->overflow_rate(), 4),
                qec::TextTable::fmt(
                    ab_result.find("Reg=4", d, 0.01)->overflow_rate(), 4)});
  }
  ab.print();
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("fig7_online_frequency", e);
}
