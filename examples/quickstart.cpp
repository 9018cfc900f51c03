// Quickstart: protect one logical qubit with QECOOL.
//
// Builds a distance-5 planar surface code sector, streams phenomenological
// noise through the on-line QECOOL decoder clocked at 2 GHz (the paper's
// operating point), and reports the logical error rate next to the MWPM
// baseline on identical settings.
//
//   ./quickstart [--d=5] [--p=0.003] [--trials=2000] [--ghz=2]
#include <cstdio>

#include "common/cli.hpp"
#include "decoder/registry.hpp"
#include "qecool/online_runner.hpp"
#include "sim/monte_carlo.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "quickstart",
          "smallest end-to-end run: sample a memory experiment, decode it "
          "with batch and on-line QECOOL, and report the outcome",
          "  --d=5                 code distance\n"
          "  --p=0.003             physical error rate\n"
          "  --ghz=2.0             decoder clock in GHz\n"
          "  --trials=2000         Monte Carlo trials (env QECOOL_TRIALS)\n")) {
    return 0;
  }
  const int d = static_cast<int>(args.get_int_or("d", 5));
  const double p = args.get_double_or("p", 0.003);
  const int trials = qec::trials_override(args, 2000);
  const double ghz = args.get_double_or("ghz", 2.0);
  qec::reject_unread(args);

  std::printf("QECOOL quickstart: d=%d, p=%.4f, %d trials, decoder @ %.1f GHz\n",
              d, p, trials, ghz);

  const qec::ExperimentConfig config =
      qec::phenomenological_config(d, p, trials);

  qec::OnlineConfig online;
  online.cycles_per_round = qec::cycles_per_microsecond(ghz * 1e9);
  const qec::ExperimentResult qecool =
      qec::run_online_experiment(config, online);

  const qec::ExperimentResult baseline =
      qec::run_memory_experiment(qec::decoder_maker("mwpm"), config);

  std::printf("\n  decoder        logical error rate  (95%% CI)\n");
  std::printf("  online-QECOOL  %-18.5f [%.5f, %.5f]\n",
              qecool.logical_error_rate, qecool.ci.lower, qecool.ci.upper);
  std::printf("  MWPM (batch)   %-18.5f [%.5f, %.5f]\n",
              baseline.logical_error_rate, baseline.ci.lower,
              baseline.ci.upper);
  std::printf("\n  QECOOL per-layer cycles: avg %.2f, max %.0f  (budget %.0f)\n",
              qecool.layer_cycles.mean(), qecool.layer_cycles.max(),
              online.cycles_per_round);
  std::printf("  overflow/drain failures: %llu of %llu trials\n",
              static_cast<unsigned long long>(qecool.operational_failures),
              static_cast<unsigned long long>(qecool.trials));
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("quickstart", e);
}
