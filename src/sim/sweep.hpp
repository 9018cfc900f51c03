// Unified sweep driver: one declarative grid over (decoder variant, code
// distance, physical error rate) replacing the hand-rolled nested loops that
// every bench and example used to carry. A variant is either a batch
// decoder (a registry spec, run through the sharded Monte Carlo engine) or
// an on-line QECOOL configuration; all cells share the grid's trial budget,
// seed schedule, and threads/shards settings, and can be streamed to CSV.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qecool/online_runner.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/threshold.hpp"

namespace qec {

struct SweepVariant {
  /// Row label in tables / the `variant` CSV column.
  std::string label;

  /// Decoder registry spec ("mwpm", "qecool:reg_depth=4", ...); used unless
  /// `online` is set.
  std::string decoder;

  /// When set the cell runs the on-line QECOOL experiment instead of a
  /// batch decode (`decoder` is ignored).
  std::optional<OnlineConfig> online = std::nullopt;

  /// Optional per-cell trial override (e.g. the MWPM cost-budget adaptation
  /// in bench_util.hpp); receives the cell's config with the grid-level
  /// trial count already filled in.
  std::function<int(const ExperimentConfig&)> trials_for = nullptr;
};

/// Convenience constructors for the two variant kinds.
SweepVariant decoder_variant(std::string label, std::string decoder_spec);
SweepVariant online_variant(std::string label, OnlineConfig online);

struct SweepGrid {
  std::vector<SweepVariant> variants;
  std::vector<int> distances;
  std::vector<double> ps;

  /// false: 3-D phenomenological (rounds = d); true: 2-D code capacity
  /// (rounds = 1, perfect measurement).
  bool code_capacity = false;

  int trials = 400;
  std::uint64_t seed = 2021;

  /// Worker threads per cell (<= 0: all hardware threads). Thread count
  /// never changes results because `shards` is fixed independently.
  int threads = 1;
  /// RNG shards per cell. Fixed by default so sweep output is identical on
  /// any machine and for any --threads value.
  int shards = 16;

  /// The per-cell ExperimentConfig (before any trials_for override).
  ExperimentConfig cell_config(int distance, double p) const;
};

struct SweepCell {
  std::string variant;
  std::string decoder;  ///< registry spec, or "online" for on-line cells.
  int distance = 0;
  double p = 0.0;
  ExperimentConfig config;
  ExperimentResult result = {};

  double overflow_rate() const {
    return result.trials ? static_cast<double>(result.operational_failures) /
                               static_cast<double>(result.trials)
                         : 0.0;
  }
};

class SweepResult {
 public:
  std::vector<SweepCell> cells;  ///< variant-major, then distance, then p.

  /// Cell lookup; nullptr when absent.
  const SweepCell* find(std::string_view variant, int distance,
                        double p) const;

  /// p_L(p) curves of one variant, ascending in distance — the input of the
  /// threshold estimator.
  std::vector<DistanceCurve> curves(std::string_view variant) const;

  /// Averaged pairwise curve-crossing threshold of one variant.
  std::optional<double> threshold(std::string_view variant) const;

  /// Writes all cells as CSV (variant, decoder, distance, rounds, p,
  /// trials, failures, operational_failures, pl, ci_lower, ci_upper).
  /// Returns false when the file could not be opened or a write failed.
  bool write_csv(const std::string& path) const;
};

/// Called after each finished cell, in cell order (progress reporting).
using SweepProgress = std::function<void(const SweepCell&)>;

/// Runs every (variant, distance, p) cell; at each (distance, p) every
/// variant decodes the same histories (run_paired_experiment). Throws
/// std::invalid_argument for unknown decoder specs or a cell with trials
/// < 1, before any simulation. With a `csv_path` the rows are also
/// streamed there; std::runtime_error if the file cannot be opened (before
/// any simulation) or a write failed (at the end).
SweepResult run_sweep(const SweepGrid& grid, const std::string& csv_path = "",
                      const SweepProgress& progress = nullptr);

/// `points` log-spaced values spanning [lo, hi] (the usual p grid).
std::vector<double> log_spaced(double lo, double hi, int points);

}  // namespace qec
