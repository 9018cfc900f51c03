// Extension experiment (beyond the paper): decoder accuracy under
// circuit-level depolarizing noise in the syndrome-extraction circuit.
// The paper evaluates the phenomenological model only; the on-line decoder
// consumes circuit-level histories unchanged, and the interesting question
// is how far the thresholds drop when every CNOT, reset, idle and readout
// can fault (typically 3-5x for uniform-weight matching decoders).
//
//   ext_circuit_noise [--trials=400]
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/circuit_level.hpp"
#include "qecool/qecool_decoder.hpp"
#include "sim/threshold.hpp"

namespace {

double run_point(qec::Decoder& decoder, int d, double p, int trials,
                 std::uint64_t seed) {
  const qec::PlanarLattice lat(d);
  qec::Xoshiro256ss rng(seed + static_cast<std::uint64_t>(d) * 131 +
                        static_cast<std::uint64_t>(p * 1e9));
  int failures = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto h = qec::sample_circuit_history(lat, {p, d, 1.0}, rng);
    const auto r = decoder.decode(lat, h);
    failures += qec::logical_failure(lat, h, r);
  }
  return static_cast<double>(failures) / trials;
}

}  // namespace

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "ext_circuit_noise",
          "decoder accuracy under circuit-level depolarizing noise in the "
          "syndrome-extraction circuit (extension beyond the paper)",
          "  --trials=400          Monte Carlo trials per point (env "
          "QECOOL_TRIALS)\n")) {
    return 0;
  }
  const int trials = qec::trials_override(args, 400);
  qec::reject_unread(args);

  qec::bench::print_header(
      "Extension: circuit-level noise thresholds",
      "not in paper — natural extension of Fig 4a / Fig 7");

  const std::vector<int> ds = {5, 7, 9};

  struct Entry {
    const char* name;
    std::function<std::unique_ptr<qec::Decoder>()> make;
    int trial_divisor;
    std::vector<double> ps;  // grid bracketing the expected crossing
  };
  const Entry entries[] = {
      {"batch-QECOOL",
       [] { return std::make_unique<qec::BatchQecoolDecoder>(); }, 1,
       {0.0005, 0.001, 0.0015, 0.002, 0.003, 0.004, 0.006}},
      {"MWPM", [] { return std::make_unique<qec::MwpmDecoder>(); }, 2,
       {0.002, 0.004, 0.006, 0.008, 0.010, 0.012}},
  };

  for (const auto& entry : entries) {
    const auto& ps = entry.ps;
    std::vector<std::string> header = {"d"};
    for (double p : ps) header.push_back("p=" + qec::TextTable::fmt(p, 4));
    qec::TextTable table(header);
    std::vector<qec::DistanceCurve> curves;
    std::printf("--- %s ---\n", entry.name);
    for (int d : ds) {
      qec::DistanceCurve curve{d, {}};
      std::vector<std::string> row = {std::to_string(d)};
      for (double p : ps) {
        auto decoder = entry.make();
        const double pl =
            run_point(*decoder, d, p, trials / entry.trial_divisor, 777);
        curve.points.push_back({p, pl});
        row.push_back(qec::TextTable::sci(pl, 2));
      }
      curves.push_back(curve);
      table.add_row(row);
      std::fprintf(stderr, "  %s d=%d done\n", entry.name, d);
    }
    table.print();
    const auto th = qec::estimate_threshold(curves);
    std::printf("circuit-level p_th (%s): %s  (phenomenological: "
                "QECOOL ~1%%, MWPM ~3%%)\n\n",
                entry.name,
                th ? qec::TextTable::fmt(*th, 5).c_str() : "n/a");
  }

  const auto counts = qec::count_circuit_locations(qec::PlanarLattice(9));
  std::printf("fault locations per round at d=9: %d CNOTs, %d resets, "
              "%d measurements, %d idle slots\n",
              counts.cnots, counts.resets, counts.measurements,
              counts.idle_slots);
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("ext_circuit_noise", e);
}
