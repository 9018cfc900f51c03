// Table III: per-layer execution cycles of on-line QECOOL (Max / Avg /
// sigma) for d in {5..13} and p in {0.001, 0.005, 0.01}.
//
// The decoder runs with an unconstrained cycle budget (the table
// characterises the work per layer, not a particular clock); thv = 3 and a
// 7-entry Reg as in the paper.
//
//   table3_execution_cycles [--trials=200] [--threads=N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "table3_execution_cycles",
          "Table III: per-layer execution cycles of on-line QECOOL "
          "(max / avg / sigma) over d and p, unconstrained budget",
          "  --trials=200          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n"
          "  --csv=FILE            write the table CSV to FILE\n")) {
    return 0;
  }
  const int trials = qec::trials_override(args, 200);
  const int threads = qec::threads_override(args, 1);
  const std::string csv = args.get_or("csv", "");
  qec::reject_unread(args);

  qec::bench::print_header("Table III: per-layer execution cycles of QECOOL",
                           "Table III (Max / Avg / sigma per layer)");

  qec::SweepGrid grid;
  // cycles_per_round = 0: unconstrained budget.
  grid.variants.push_back(qec::online_variant("QECOOL", qec::OnlineConfig{}));
  grid.distances = {5, 7, 9, 11, 13};
  grid.ps = {0.001, 0.005, 0.01};
  grid.trials = trials;
  grid.threads = threads;

  const double last_p = grid.ps.back();
  const auto result =
      qec::run_sweep(grid, csv,
                     [last_p](const qec::SweepCell& cell) {
                       if (cell.p == last_p) {
                         std::fprintf(stderr, "  d=%d done\n", cell.distance);
                       }
                     });

  std::vector<std::string> header = {"d"};
  for (double p : grid.ps) {
    const std::string tag = "p=" + qec::TextTable::fmt(p, 3);
    header.push_back(tag + " Max");
    header.push_back(tag + " Avg");
    header.push_back(tag + " sigma");
  }
  qec::TextTable table(header);

  for (int d : grid.distances) {
    std::vector<std::string> row = {std::to_string(d)};
    for (double p : grid.ps) {
      const auto& cycles = result.find("QECOOL", d, p)->result.layer_cycles;
      row.push_back(qec::TextTable::fmt(cycles.max(), 0));
      row.push_back(qec::TextTable::fmt(cycles.mean(), 2));
      row.push_back(qec::TextTable::fmt(cycles.stddev(), 2));
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\npaper's character to compare: Avg ~ d at p=0.001 (6.1 at d=5), "
      "heavy growth in d and p (337 avg / 4072 max at d=13, p=0.01), "
      "Max >> Avg everywhere.\nA layer must finish within 1 us (the "
      "measurement interval), i.e. within f x 1us cycles.\n");
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("table3_execution_cycles", e);
}
