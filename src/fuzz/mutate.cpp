#include "fuzz/mutate.hpp"

#include <algorithm>
#include <cstddef>

namespace qec::fuzz {

namespace {

/// Check-grid geometry of a layer: checks = rows x cols with cols = d - 1
/// (PlanarLattice check layout, row-major).
struct CheckGrid {
  int rows;
  int cols;
};

CheckGrid check_grid(const SyndromeTrace& trace) {
  const int d = static_cast<int>(trace.header().distance);
  const int cols = d > 1 ? d - 1 : 1;
  const int checks = static_cast<int>(trace.header().checks);
  return {checks / cols, cols};
}

}  // namespace

void TraceMutator::flip(SyndromeTrace& trace, int lane, int round,
                        std::size_t check) {
  PackedBits layer = trace.layer(lane, round);
  layer.flip(check);
  trace.set_layer(lane, round, layer);
}

MutationOp TraceMutator::mutate(SyndromeTrace& trace) {
  // kSplice needs a donor parent, so the single-trace picker excludes it.
  const auto op = static_cast<MutationOp>(
      rng_.below(static_cast<std::uint64_t>(MutationOp::kSplice)));
  apply(trace, op);
  return op;
}

void TraceMutator::apply(SyndromeTrace& trace, MutationOp op) {
  const int lanes = trace.lanes();
  const int rounds = trace.rounds();
  const std::size_t checks = trace.header().checks;
  if (lanes <= 0 || rounds <= 0 || checks == 0) return;
  const auto grid = check_grid(trace);

  const auto pick_lane = [&] { return static_cast<int>(rng_.below(lanes)); };
  const auto pick_round = [&] { return static_cast<int>(rng_.below(rounds)); };

  switch (op) {
    case MutationOp::kBitFlips: {
      const int n = 1 + static_cast<int>(rng_.below(8));
      for (int i = 0; i < n; ++i) {
        flip(trace, pick_lane(), pick_round(), rng_.below(checks));
      }
      break;
    }

    case MutationOp::kBurst: {
      // Dense defect cluster in one round: every check within Chebyshev
      // radius r of a random centre flips with probability 3/4. Drives
      // dense windows through the matcher.
      const int lane = pick_lane();
      const int round = pick_round();
      const int r = 1 + static_cast<int>(rng_.below(3));
      const int cr = static_cast<int>(rng_.below(grid.rows));
      const int cc = static_cast<int>(rng_.below(grid.cols));
      PackedBits layer = trace.layer(lane, round);
      for (int dr = -r; dr <= r; ++dr) {
        for (int dc = -r; dc <= r; ++dc) {
          const int row = cr + dr;
          const int col = cc + dc;
          if (row < 0 || row >= grid.rows || col < 0 || col >= grid.cols)
            continue;
          if (rng_.below(4) == 0) continue;
          layer.flip(static_cast<std::size_t>(row * grid.cols + col));
        }
      }
      trace.set_layer(lane, round, layer);
      break;
    }

    case MutationOp::kRowStreak: {
      // The same check asserted across consecutive rounds — a measurement
      // error streak. Length biased past the Reg depth so occupancy climbs.
      const int lane = pick_lane();
      const std::size_t check = rng_.below(checks);
      const int max_len = std::min(rounds, config_.reg_depth + 3);
      const int len = 2 + static_cast<int>(rng_.below(
                              std::max(1, max_len - 1)));
      const int start =
          static_cast<int>(rng_.below(std::max(1, rounds - len + 1)));
      for (int round = start; round < std::min(rounds, start + len); ++round) {
        PackedBits layer = trace.layer(lane, round);
        layer.set(check);
        trace.set_layer(lane, round, layer);
      }
      break;
    }

    case MutationOp::kColStreak: {
      // A vertical line of adjacent checks (same column, consecutive rows)
      // in one round — a spatial error chain the matcher must retrace.
      const int lane = pick_lane();
      const int round = pick_round();
      const int col = static_cast<int>(rng_.below(grid.cols));
      const int len = 2 + static_cast<int>(rng_.below(
                              std::max(1, grid.rows - 1)));
      const int start =
          static_cast<int>(rng_.below(std::max(1, grid.rows - len + 1)));
      PackedBits layer = trace.layer(lane, round);
      for (int row = start; row < std::min(grid.rows, start + len); ++row) {
        layer.set(static_cast<std::size_t>(row * grid.cols + col));
      }
      trace.set_layer(lane, round, layer);
      break;
    }

    case MutationOp::kWindowCluster: {
      // Defects straddling a window boundary: rounds {b-1, b, b+1} around a
      // multiple of the Reg depth (or of thv), where pop eligibility
      // changes shape.
      const int lane = pick_lane();
      const int stride =
          (rng_.below(2) == 0 && config_.thv > 0) ? config_.thv
                                                  : std::max(1, config_.reg_depth);
      const int nb = std::max(1, rounds / stride);
      const int boundary =
          stride * (1 + static_cast<int>(rng_.below(nb)));
      const int n = 2 + static_cast<int>(rng_.below(4));
      for (int i = 0; i < n; ++i) {
        const int round =
            boundary - 1 + static_cast<int>(rng_.below(3));
        if (round < 0 || round >= rounds) continue;
        flip(trace, lane, round, rng_.below(checks));
      }
      break;
    }

    case MutationOp::kClearRegion: {
      // Zero a span of rounds in one lane: escapes saturated/overflowed
      // states and seeds the shrinker with naturally sparse neighbours.
      const int lane = pick_lane();
      const int len = 1 + static_cast<int>(rng_.below(
                              std::max(1, rounds / 2)));
      const int start =
          static_cast<int>(rng_.below(std::max(1, rounds - len + 1)));
      PackedBits zero(checks);
      for (int round = start; round < std::min(rounds, start + len); ++round) {
        trace.set_layer(lane, round, zero);
      }
      break;
    }

    case MutationOp::kSplice:
      // Needs a donor; handled by splice().
      break;
  }
}

void TraceMutator::splice(SyndromeTrace& trace, const SyndromeTrace& donor) {
  if (trace.header().distance != donor.header().distance ||
      trace.lanes() != donor.lanes() || trace.rounds() != donor.rounds()) {
    return;  // geometry mismatch: crossover undefined, leave trace alone
  }
  const int rounds = trace.rounds();
  if (rounds <= 1) return;
  const int cut = 1 + static_cast<int>(rng_.below(rounds - 1));
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    for (int round = cut; round < rounds; ++round) {
      trace.set_layer(lane, round, donor.layer(lane, round));
    }
  }
}

}  // namespace qec::fuzz
