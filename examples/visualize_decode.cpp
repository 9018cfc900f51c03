// Visual decode walk-through: sample a code-capacity error, decode it with
// QECOOL and with MWPM, and render both on the lattice — the fastest way to
// build intuition for how the spike-based greedy matching differs from
// optimal matching (and where it loses: see DESIGN.md's discussion of
// greedy failure modes).
//
//   ./visualize_decode [--d=5] [--p=0.06] [--seed=3] [--trials=1]
#include <cstdio>

#include "common/cli.hpp"
#include "decoder/decoder.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/qecool_decoder.hpp"
#include "surface_code/ascii_render.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(
          args, "visualize_decode",
          "ASCII-render one decode: the sampled errors, the syndrome, and "
          "the decoder's correction on the planar lattice",
          "  --d=5                 code distance\n"
          "  --p=0.06              physical error rate\n"
          "  --seed=3              RNG seed\n"
          "  --trials=1            decodes to render (env QECOOL_TRIALS)\n")) {
    return 0;
  }
  const int d = static_cast<int>(args.get_int_or("d", 5));
  const double p = args.get_double_or("p", 0.06);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 3));
  const int trials = qec::trials_override(args, 1);
  qec::reject_unread(args);

  const qec::PlanarLattice lattice(d);
  qec::Xoshiro256ss rng(seed);
  qec::BatchQecoolDecoder qecool;
  qec::MwpmDecoder mwpm;

  for (int trial = 0; trial < trials; ++trial) {
    const auto history =
        qec::sample_history(lattice, {p, 0.0, 1}, rng);
    std::printf("=== trial %d: d=%d, p=%.3f, error weight %d ===\n\n", trial,
                d, p, qec::weight(history.final_error));
    const auto rq = qecool.decode(lattice, history);
    const auto rm = mwpm.decode(lattice, history);
    std::printf("--- QECOOL (spike-based greedy) ---\n%s\n",
                qec::render_decode(lattice, history.final_error, rq.correction)
                    .c_str());
    std::printf("--- MWPM (exact matching) ---\n%s\n",
                qec::render_decode(lattice, history.final_error, rm.correction)
                    .c_str());
  }
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("visualize_decode", e);
}
