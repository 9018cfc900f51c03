// Fig 4b: the proportion of matchings that propagate three or more planes
// in the vertical (temporal) direction, as a function of physical error
// rate — the evidence for choosing thv = 3 in on-line QECOOL.
//
// Also prints the full vertical-propagation histogram (ablation data for
// other thv choices; DESIGN.md section 5).
//
//   fig4b_vertical_propagation [--trials=300] [--dmax=13]
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "decoder/registry.hpp"
#include "sim/monte_carlo.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "fig4b_vertical_propagation",
          "Fig 4b: fraction of matchings propagating >= 3 planes vertically "
          "(the evidence for thv = 3), plus the full histogram",
          "  --trials=300          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --dmax=13             largest code distance\n")) {
    return 0;
  }
  const int trials = qec::trials_override(args, 300);
  const int dmax = static_cast<int>(args.get_int_or("dmax", 13));
  qec::reject_unread(args);

  qec::bench::print_header(
      "Fig 4b: proportion of matchings propagating >= 3 vertical planes",
      "Fig 4(b); negligible (<0.002) for p below p_th, justifying thv = 3");

  const std::vector<double> ps = {0.003, 0.005, 0.0075, 0.01,
                                  0.015, 0.02,  0.03,   0.05};
  std::vector<std::string> header = {"d"};
  for (double p : ps) header.push_back("p=" + qec::TextTable::fmt(p, 4));
  qec::TextTable table(header);

  const qec::DecoderMaker batch_qecool = qec::decoder_maker("qecool");
  qec::MatchStats hist_at_pth;  // histogram snapshot near p = 0.01
  for (int d = 5; d <= dmax; d += 2) {
    std::vector<std::string> row = {std::to_string(d)};
    for (double p : ps) {
      const auto r = qec::run_memory_experiment(
          batch_qecool, qec::phenomenological_config(d, p, trials));
      const double proportion =
          r.matches.total()
              ? static_cast<double>(r.matches.vertical_ge3) /
                    static_cast<double>(r.matches.total())
              : 0.0;
      row.push_back(qec::TextTable::sci(proportion, 2));
      if (d == dmax && p == 0.01) hist_at_pth = r.matches;
    }
    table.add_row(row);
    std::fprintf(stderr, "  d=%d done\n", d);
  }
  table.print();

  std::printf("\nvertical-propagation histogram at d=%d, p=0.01 "
              "(ablation for thv):\n",
              dmax);
  qec::TextTable hist({"dt (planes)", "matchings", "fraction"});
  const double total = static_cast<double>(hist_at_pth.total());
  for (std::size_t dt = 0; dt < hist_at_pth.vertical_hist.size(); ++dt) {
    if (hist_at_pth.vertical_hist[dt] == 0) continue;
    hist.add_row({std::to_string(dt),
                  std::to_string(hist_at_pth.vertical_hist[dt]),
                  qec::TextTable::sci(
                      static_cast<double>(hist_at_pth.vertical_hist[dt]) /
                          total,
                      2)});
  }
  hist.print();
  std::printf("\n=> matchings reaching dt >= 3 are negligible below p_th, so "
              "a Reg window of thv = 3 suffices (paper Section III-C).\n");
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("fig4b_vertical_propagation", e);
}
