// Fig 4a: physical vs logical error rate for batch-QECOOL and MWPM,
// d = 5..13, phenomenological noise with d noisy rounds. The paper reads a
// threshold of ~1.5% for batch-QECOOL and ~3% for MWPM off these curves.
//
//   fig4a_threshold_batch [--trials=400] [--dmax=13] [--fast] [--threads=N]
//                         [--csv=fig4a.csv]
#include <climits>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "fig4a_threshold_batch",
          "Fig 4a: logical error-rate scaling of batch-QECOOL vs MWPM over "
          "the threshold grid",
          "  --trials=400          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --fast                shrink to 120 trials for smoke runs\n"
          "  --dmax=13             largest code distance\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n"
          "  --csv=FILE            write the sweep CSV to FILE\n")) {
    return 0;
  }
  const int base_trials =
      qec::trials_override(args, args.get_flag("fast") ? 120 : 400);
  // The grid starts at d = 5, so a smaller --dmax would run nothing.
  const int dmax = qec::int_flag_in(args, "dmax", 13, 5, INT_MAX);
  const int threads = qec::threads_override(args, 1);
  const std::string csv = args.get_or("csv", "");
  qec::reject_unread(args);

  qec::bench::print_header("Fig 4a: error-rate scaling, batch-QECOOL vs MWPM",
                           "Fig 4(a); p_th(batch-QECOOL) ~ 1.5%, p_th(MWPM) ~ 3%");

  qec::SweepGrid grid;
  grid.ps = {0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.04};
  for (int d = 5; d <= dmax; d += 2) grid.distances.push_back(d);
  grid.trials = base_trials;
  grid.threads = threads;
  grid.variants.push_back(qec::decoder_variant("batch-QECOOL", "qecool"));
  auto mwpm = qec::decoder_variant("MWPM", "mwpm");
  mwpm.trials_for = [base_trials](const qec::ExperimentConfig& config) {
    return qec::bench::mwpm_trials(base_trials, config.distance,
                                   config.p_data, config.rounds);
  };
  grid.variants.push_back(std::move(mwpm));

  const double last_p = grid.ps.back();
  const auto result = qec::run_sweep(
      grid, csv, [last_p](const qec::SweepCell& cell) {
        if (cell.p == last_p) {
          std::fprintf(stderr, "  %s d=%d done\n", cell.variant.c_str(),
                       cell.distance);
        }
      });

  std::vector<std::string> header = {"decoder", "d"};
  for (double p : grid.ps) header.push_back("p=" + qec::TextTable::fmt(p, 4));
  qec::TextTable table(header);
  for (const auto& variant : grid.variants) {
    for (int d : grid.distances) {
      std::vector<std::string> row = {variant.label, std::to_string(d)};
      for (double p : grid.ps) {
        const auto* cell = result.find(variant.label, d, p);
        row.push_back(
            qec::TextTable::sci(cell->result.logical_error_rate, 2));
      }
      table.add_row(row);
    }
  }
  table.print();

  const auto th_q = result.threshold("batch-QECOOL");
  const auto th_m = result.threshold("MWPM");
  std::printf("\nestimated p_th batch-QECOOL: %s   (paper: ~0.015)\n",
              th_q ? qec::TextTable::fmt(*th_q, 4).c_str() : "n/a");
  std::printf("estimated p_th MWPM        : %s   (paper: ~0.030)\n",
              th_m ? qec::TextTable::fmt(*th_m, 4).c_str() : "n/a");
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("fig4a_threshold_batch", e);
}
