// Table IV: qualitative comparison of decoder accuracy thresholds (2-D and
// 3-D), measured by Monte Carlo with this repo's implementations:
//
//            paper p_th (2-D / 3-D)     environment
//   MWPM     10.3% / 2.9%               software
//   UF        9.9% / 2.6%               FPGA
//   AQEC      5.0% / -                  SFQ
//   QECOOL    6.0% / 1.0%               SFQ
//
// Includes the hop-limit ablation from DESIGN.md: QECOOL with escalating
// timeout vs a single full-range pass (nlimit behaviour).
//
//   table4_decoder_comparison [--trials=1500] [--threads=N]
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

namespace {

std::optional<double> measure_threshold(const char* spec, bool three_d,
                                        const std::vector<double>& ps,
                                        int base_trials, bool adapt_mwpm,
                                        const std::vector<int>& ds,
                                        int threads) {
  qec::SweepGrid grid;
  auto variant = qec::decoder_variant(spec, spec);
  if (adapt_mwpm) {
    variant.trials_for = [base_trials](const qec::ExperimentConfig& config) {
      return qec::bench::mwpm_trials(base_trials, config.distance,
                                     config.p_data, config.rounds);
    };
  }
  grid.variants.push_back(std::move(variant));
  grid.distances = ds;
  grid.ps = ps;
  grid.code_capacity = !three_d;
  grid.trials = base_trials;
  grid.threads = threads;
  return qec::run_sweep(grid).threshold(spec);
}

std::string fmt_th(const std::optional<double>& th) {
  return th ? qec::TextTable::fmt(*th * 100, 2) + "%" : "n/a";
}

}  // namespace

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "table4_decoder_comparison",
          "Table IV: decoder accuracy thresholds (2-D and 3-D) for MWPM, "
          "UF, AQEC and QECOOL, plus the hop-limit ablation",
          "  --trials=1500         Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n"
          "  --threads=1           worker threads (0 = all cores; env "
          "QECOOL_THREADS)\n")) {
    return 0;
  }
  const int trials = static_cast<int>(qec::trials_override(args, 1500));
  const int threads = qec::threads_override(args, 1);

  qec::bench::print_header("Table IV: decoder comparison (measured p_th)",
                           "Table IV");

  // Each decoder gets a sweep grid bracketing its expected crossing; a grid
  // far from the crossing makes the log-log interpolation noisy.
  struct Row {
    const char* name;
    const char* spec;
    bool adapt;           // MWPM needs the adaptive trial budget
    bool three_d_capable;
    std::vector<double> ps2d;
    std::vector<double> ps3d;
    std::vector<int> ds;
    const char* paper_2d;
    const char* paper_3d;
    const char* latency;
    const char* environment;
  };
  const Row rows[] = {
      {"MWPM", "mwpm", true, true,
       {0.07, 0.08, 0.09, 0.10, 0.11, 0.12},
       {0.02, 0.025, 0.03, 0.035, 0.04},
       {5, 7, 9},
       "10.3%", "2.9%", "High", "Software"},
      {"UF", "uf", false, true,
       {0.06, 0.07, 0.08, 0.09, 0.10, 0.11},
       {0.015, 0.02, 0.025, 0.03, 0.035},
       {5, 7, 9, 11, 13},
       "9.9%", "2.6%", "Medium", "FPGA"},
      {"AQEC", "aqec", false, false,
       {0.02, 0.03, 0.04, 0.05, 0.06, 0.07},
       {},
       {5, 7, 9, 11, 13},
       "5%", "-", "Very low", "SFQ"},
      {"QECOOL", "qecool", false, true,
       {0.02, 0.03, 0.04, 0.05, 0.06, 0.07},
       {0.005, 0.0075, 0.01, 0.0125, 0.015, 0.02},
       {5, 7, 9, 11, 13},
       "6.0%", "1.0%", "Low", "SFQ"},
  };

  qec::TextTable table({"decoder", "p_th 2-D (meas)", "p_th 2-D (paper)",
                        "p_th 3-D (meas)", "p_th 3-D (paper)", "latency",
                        "environment"});
  for (const auto& row : rows) {
    const auto th2 = measure_threshold(row.spec, false, row.ps2d, trials,
                                       row.adapt, row.ds, threads);
    std::fprintf(stderr, "  %s 2-D done\n", row.name);
    std::optional<double> th3;
    if (row.three_d_capable) {
      th3 = measure_threshold(row.spec, true, row.ps3d, trials / 3,
                              row.adapt, row.ds, threads);
      std::fprintf(stderr, "  %s 3-D done\n", row.name);
    }
    table.add_row({row.name, fmt_th(th2), row.paper_2d,
                   row.three_d_capable ? fmt_th(th3) : "-", row.paper_3d,
                   row.latency, row.environment});
  }
  table.print();

  // Ablation: hop-limit escalation. A Controller that starts with the
  // full-range timeout (nlimit reached immediately) loses the
  // closest-pairs-first property and decodes worse.
  std::printf("\n--- ablation: hop-limit escalation (d=7, 3-D) ---\n");
  qec::SweepGrid ablation;
  ablation.variants.push_back(
      qec::decoder_variant("escalating", "qecool"));
  ablation.variants.push_back(
      qec::decoder_variant("max-hop", "qecool:start_at_max_hop=1"));
  ablation.distances = {7};
  ablation.ps = {0.005, 0.01, 0.02};
  ablation.trials = trials / 2;
  ablation.threads = threads;
  const auto ab_result = qec::run_sweep(ablation);

  qec::TextTable ab({"p", "escalating C (paper)", "max-hop first pass"});
  for (double p : ablation.ps) {
    ab.add_row({qec::TextTable::fmt(p, 4),
                qec::TextTable::sci(
                    ab_result.find("escalating", 7, p)->result.logical_error_rate,
                    2),
                qec::TextTable::sci(
                    ab_result.find("max-hop", 7, p)->result.logical_error_rate,
                    2)});
  }
  ab.print();
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("table4_decoder_comparison", e);
}
