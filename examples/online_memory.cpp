// On-line memory experiment walk-through: stream one noisy history through
// on-line QECOOL layer by layer and narrate what the hardware does —
// pushes, pops, matches, cycles — then verify the logical qubit survived.
// A didactic view of Section III-B / Fig 3 (batch vs online QEC).
//
//   ./online_memory [--d=5] [--p=0.02] [--seed=7] [--ghz=2]
#include <cstdio>

#include "common/cli.hpp"
#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
#include "qecool/online_runner.hpp"
#include "surface_code/pauli_frame.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "online_memory",
          "run one on-line memory experiment and print the per-round "
          "queue/decoding story at a given decoder clock",
          "  --d=5                 code distance\n"
          "  --p=0.02              physical error rate\n"
          "  --ghz=2.0             decoder clock in GHz\n"
          "  --seed=7              RNG seed\n")) {
    return 0;
  }
  const int d = static_cast<int>(args.get_int_or("d", 5));
  const double p = args.get_double_or("p", 0.02);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 7));
  const double ghz = args.get_double_or("ghz", 2.0);
  qec::reject_unread(args);

  const qec::PlanarLattice lattice(d);
  qec::Xoshiro256ss rng(seed);
  const auto history = qec::sample_history(lattice, {p, p, d}, rng);

  std::printf("on-line QECOOL walk-through: d=%d, p=%.3f, %d noisy rounds + "
              "1 perfect round, decoder @ %.1f GHz\n\n",
              d, p, d, ghz);

  qec::QecoolConfig config;  // thv = 3, 7-entry Reg: the paper's hardware
  qec::QecoolEngine engine(lattice, config);
  const auto budget =
      static_cast<std::uint64_t>(qec::cycles_per_microsecond(ghz * 1e9));

  std::uint64_t prev_cycles = 0;
  qec::MatchStats prev_stats;
  for (int t = 0; t < history.total_rounds(); ++t) {
    const auto& layer = history.difference[static_cast<std::size_t>(t)];
    const int defects = qec::weight(layer);
    if (!engine.push_layer(layer)) {
      std::printf("round %2d: REG OVERFLOW - trial failed\n", t);
      return 1;
    }
    engine.run(budget);
    const auto& s = engine.match_stats();
    std::printf("round %2d: %d new defect%s | stored layers %d | spent %5llu "
                "cycles | matches +%llu pair, +%llu time, +%llu boundary\n",
                t, defects, defects == 1 ? " " : "s", engine.stored_layers(),
                static_cast<unsigned long long>(engine.total_cycles() -
                                                prev_cycles),
                static_cast<unsigned long long>(s.pair_matches -
                                                prev_stats.pair_matches),
                static_cast<unsigned long long>(s.self_matches -
                                                prev_stats.self_matches),
                static_cast<unsigned long long>(s.boundary_matches -
                                                prev_stats.boundary_matches));
    prev_cycles = engine.total_cycles();
    prev_stats = s;
  }

  // Keep the QEC cycle running on clean layers until the queues drain.
  const qec::BitVec clean(static_cast<std::size_t>(lattice.num_checks()), 0);
  int extra = 0;
  while (!(engine.all_clear() && engine.stored_layers() == 0) && extra < 64) {
    engine.push_layer(clean);
    engine.run(budget);
    ++extra;
  }
  std::printf("\ndrained after %d extra clean rounds; total %llu working "
              "cycles over %d popped layers\n",
              extra, static_cast<unsigned long long>(engine.total_cycles()),
              engine.popped_layers());

  const qec::BitVec residual =
      qec::xor_of(history.final_error, engine.correction());
  std::printf("physical error weight %d, correction weight %d, residual "
              "weight %d\n",
              qec::weight(history.final_error), qec::weight(engine.correction()),
              qec::weight(residual));
  if (!qec::is_zero(lattice.syndrome(residual))) {
    std::printf("=> residual has live syndrome (unexpected!)\n");
    return 1;
  }
  std::printf("=> logical qubit %s\n", lattice.logical_flip(residual)
                                           ? "LOST (logical error)"
                                           : "survived");
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("online_memory", e);
}
