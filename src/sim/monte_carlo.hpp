// Monte Carlo memory experiments: sample a phenomenological-noise history,
// decode it, apply the correction and score the logical observable — the
// procedure behind every accuracy figure in the paper.
//
// Trials are split into `shards`, each an independent RNG stream (the
// mixed seed, jumped once per shard), and shard results merge in shard
// order: for a fixed shard count a run is bit-identical for any thread
// count, and threads = 1 / shards = 0 is the original single stream. All
// decoders of one experiment decode the same sampled histories
// (run_paired_experiment), so a comparison between them shares its noise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "decoder/decoder.hpp"
#include "qecool/online_runner.hpp"

namespace qec {

struct ExperimentConfig {
  int distance = 5;
  /// Noisy measurement rounds; the paper uses rounds = d for 3-D
  /// experiments and rounds = 1 with p_meas = 0 for 2-D (code capacity).
  int rounds = 5;
  double p_data = 1e-3;
  double p_meas = 1e-3;
  int trials = 1000;
  std::uint64_t seed = 2021;

  /// Worker threads; <= 0 means all hardware threads. Never changes a
  /// result unless `shards` is 0.
  int threads = 1;
  /// RNG shards, part of the seed schedule; 0 derives one per resolved
  /// worker thread (machine-dependent when threads <= 0), so pin it when
  /// results must match across machines and thread counts (the sweep
  /// driver pins 16).
  int shards = 0;
};

/// Convenience constructors for the two standard settings.
ExperimentConfig phenomenological_config(int distance, double p, int trials,
                                         std::uint64_t seed = 2021);
ExperimentConfig code_capacity_config(int distance, double p, int trials,
                                      std::uint64_t seed = 2021);

/// The RNG stream of one shard: the seed is mixed with the structural
/// parameters (distance, rounds, and the full IEEE-754 bits of both
/// p-values, so arbitrarily small probabilities still perturb the stream),
/// then jumped `shard` times. Exposed for determinism tests.
Xoshiro256ss experiment_rng(const ExperimentConfig& config, int shard = 0);

/// Number of shards `config` resolves to (>= 1).
int resolve_shards(const ExperimentConfig& config);

struct ExperimentResult {
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;            ///< logical errors (incl. operational)
  std::uint64_t operational_failures = 0;  ///< overflow / failed drain (online)
  double logical_error_rate = 0.0;
  BinomialInterval ci;

  RunningStats layer_cycles;  ///< per-layer execution cycles (Table III)
  MatchStats matches;         ///< vertical-propagation stats (Fig 4b)

  /// Folds another shard's counters in (parallel reduction; call in shard
  /// order for reproducible floating-point sums, then finalize()).
  void merge(const ExperimentResult& other);

  void finalize();
};

/// Builds one decoder instance per shard so worker threads never share
/// decoder state; see decoder_maker() in decoder/registry.hpp.
using DecoderMaker = std::function<std::unique_ptr<Decoder>()>;

/// One decoder of a paired experiment: on-line QECOOL when `online` is set,
/// else one instance per shard from `make`.
struct PairedVariant {
  std::string label;  ///< names the variant in errors
  int trials = 0;
  std::optional<OnlineConfig> online = std::nullopt;
  DecoderMaker make = nullptr;
};

/// Common-random-numbers experiment: each shard samples each trial's
/// history once from experiment_rng(config, shard) and every variant
/// decodes it, in order. A variant decodes the first shard_trials of each
/// shard for its own trial count (config.trials is ignored), the prefix it
/// would sample alone, so its result equals its own experiment's. Throws
/// std::invalid_argument naming a variant with trials < 1 before any
/// sampling. Returns one finalized result per variant.
std::vector<ExperimentResult> run_paired_experiment(
    const ExperimentConfig& config, const std::vector<PairedVariant>& variants);

/// One-variant paired experiments. run_memory_experiment gives each shard
/// its own instance from `make` (parallel up to config.threads);
/// run_online_experiment runs on-line QECOOL.
ExperimentResult run_memory_experiment(const DecoderMaker& make,
                                       const ExperimentConfig& config);
ExperimentResult run_online_experiment(const ExperimentConfig& config,
                                       const OnlineConfig& online);

}  // namespace qec
