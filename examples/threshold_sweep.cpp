// Threshold sweep: measure the accuracy threshold of any decoder in this
// library over a physical-error-rate sweep and print the p / p_L curves —
// the experiment behind Fig 4a, Fig 7 and Table IV, exposed as a tool.
//
// The decoder is any registry spec, so engine knobs sweep too:
//   ./threshold_sweep --decoder=qecool|mwpm|uf|aqec|windowed-mwpm|ml
//   ./threshold_sweep "--decoder=qecool:reg_depth=4" [--mode=3d|2d]
//                     [--dmin=5 --dmax=9] [--trials=500] [--threads=N]
//                     [--pmin=0.004 --pmax=0.04 --points=7] [--csv=out.csv]
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "decoder/registry.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "threshold_sweep",
          "sweep any registered decoder over the (p, d) threshold grid and "
          "print / CSV the logical error rates",
          "  --decoder=qecool      decoder spec (see decoder registry)\n"
          "  --mode=3d             noise mode: 3d (phenomenological) or 2d\n"
          "  --dmin=5 --dmax=9     code-distance range\n"
          "  --pmin/--pmax         physical error-rate range (mode-dependent "
          "defaults)\n"
          "  --points=7            grid points between pmin and pmax\n"
          "  --trials=500          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n"
          "  --csv=FILE            write the sweep CSV to FILE\n")) {
    return 0;
  }
  const std::string spec = args.get_or("decoder", "qecool");
  const bool three_d = args.get_or("mode", "3d") == "3d";
  const int dmin = static_cast<int>(args.get_int_or("dmin", 5));
  const int dmax = static_cast<int>(args.get_int_or("dmax", 9));
  const int trials = qec::trials_override(args, 500);
  const double pmin = args.get_double_or("pmin", three_d ? 0.004 : 0.03);
  const double pmax = args.get_double_or("pmax", three_d ? 0.04 : 0.13);
  const int points = static_cast<int>(args.get_int_or("points", 7));
  const int threads = qec::threads_override(args, 1);
  const std::string csv = args.get_or("csv", "");
  qec::reject_unread(args);

  std::printf("threshold sweep: decoder=%s mode=%s d=%d..%d trials=%d\n",
              spec.c_str(), three_d ? "3d" : "2d", dmin, dmax, trials);
  std::printf("registered decoders:");
  for (const auto& name : qec::registered_decoders()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  qec::SweepGrid grid;
  grid.variants.push_back(qec::decoder_variant(spec, spec));
  for (int d = dmin; d <= dmax; d += 2) grid.distances.push_back(d);
  grid.ps = qec::log_spaced(pmin, pmax, points);
  grid.code_capacity = !three_d;
  grid.trials = trials;
  grid.threads = threads;

  qec::SweepResult result;
  try {
    result = qec::run_sweep(grid, csv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  std::vector<std::string> header = {"d"};
  for (double p : grid.ps) header.push_back("p=" + qec::TextTable::fmt(p, 4));
  qec::TextTable table(header);
  for (int d : grid.distances) {
    std::vector<std::string> row = {std::to_string(d)};
    for (double p : grid.ps) {
      row.push_back(qec::TextTable::sci(
          result.find(spec, d, p)->result.logical_error_rate, 2));
    }
    table.add_row(row);
  }
  table.print();

  const auto th = result.threshold(spec);
  if (th) {
    std::printf("\nestimated threshold p_th = %.4f (%.2f%%)\n", *th,
                *th * 100);
  } else {
    std::printf("\nno crossing found in the sampled range — widen the sweep "
                "or add trials\n");
  }
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("threshold_sweep", e);
}
