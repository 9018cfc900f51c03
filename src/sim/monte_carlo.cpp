#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/executor.hpp"

namespace qec {

ExperimentConfig phenomenological_config(int distance, double p, int trials,
                                         std::uint64_t seed) {
  return {.distance = distance, .rounds = distance, .p_data = p, .p_meas = p,
          .trials = trials, .seed = seed};
}

ExperimentConfig code_capacity_config(int distance, double p, int trials,
                                      std::uint64_t seed) {
  return {.distance = distance, .rounds = 1, .p_data = p, .p_meas = 0.0,
          .trials = trials, .seed = seed};
}

void ExperimentResult::merge(const ExperimentResult& other) {
  trials += other.trials;
  failures += other.failures;
  operational_failures += other.operational_failures;
  layer_cycles.merge(other.layer_cycles);
  matches.merge(other.matches);
}

void ExperimentResult::finalize() {
  logical_error_rate =
      trials ? static_cast<double>(failures) / static_cast<double>(trials)
             : 0.0;
  ci = wilson_interval(failures, trials);
}

Xoshiro256ss experiment_rng(const ExperimentConfig& config, int shard) {
  // Feed every structural parameter through a full SplitMix64 avalanche so
  // any single-bit change — including p-values far below 1e-12, via their
  // raw IEEE-754 bit patterns — yields an unrelated stream.
  std::uint64_t state = config.seed;
  const auto feed = [&state](std::uint64_t value) {
    state ^= value;
    state = splitmix64(state);
  };
  feed(static_cast<std::uint64_t>(config.distance));
  feed(static_cast<std::uint64_t>(config.rounds));
  feed(std::bit_cast<std::uint64_t>(config.p_data));
  feed(std::bit_cast<std::uint64_t>(config.p_meas));
  Xoshiro256ss rng(state);
  for (int i = 0; i < shard; ++i) rng.jump();
  return rng;
}

int resolve_shards(const ExperimentConfig& config) {
  return config.shards >= 1 ? config.shards : resolve_threads(config.threads);
}

namespace {

/// Trials assigned to `shard`: an even split, earlier shards absorbing the
/// remainder, so the schedule is a pure function of (trials, shards).
int shard_trials(int trials, int shards, int shard) {
  return trials / shards + (shard < trials % shards ? 1 : 0);
}

/// Decodes one history with one variant and scores it into `result`;
/// `owned` is the shard's instance of a batch variant.
void score(const PairedVariant& variant, Decoder* owned,
           const PlanarLattice& lattice, const SyndromeHistory& history,
           ExperimentResult& result) {
  ++result.trials;
  DecodeResult decode;
  if (!variant.online) {
    decode = owned->decode(lattice, history);
    if (const MatchStats* stats = owned->match_stats()) {
      result.matches.merge(*stats);
    }
  } else {
    OnlineResult run = run_online(lattice, history, *variant.online);
    result.matches.merge(run.matches);
    for (std::uint64_t cycles : run.layer_cycles) {
      result.layer_cycles.add(static_cast<double>(cycles));
    }
    if (run.failed_operationally()) {
      ++result.operational_failures;
      ++result.failures;
      return;
    }
    decode.correction = std::move(run.correction);
  }
  if (logical_failure(lattice, history, decode)) ++result.failures;
}

}  // namespace

std::vector<ExperimentResult> run_paired_experiment(
    const ExperimentConfig& config, const std::vector<PairedVariant>& variants) {
  int most_trials = 0;
  for (const PairedVariant& variant : variants) {
    if (variant.trials < 1) {
      throw std::invalid_argument("experiment: variant '" + variant.label +
                                  "' needs at least 1 trial, got " +
                                  std::to_string(variant.trials));
    }
    most_trials = std::max(most_trials, variant.trials);
  }
  const PlanarLattice lattice(config.distance);
  const NoiseParams params{config.p_data, config.p_meas, config.rounds};
  const int shards = resolve_shards(config);
  const std::size_t count = variants.size();
  // parts[shard * count + v]: variant v's counters over one shard.
  std::vector<ExperimentResult> parts(static_cast<std::size_t>(shards) * count);
  parallel_for(shards, config.threads, [&](int shard) {
    std::vector<std::unique_ptr<Decoder>> owned(count);
    for (std::size_t v = 0; v < count; ++v) {
      if (!variants[v].online) {
        owned[v] = variants[v].make();
      }
    }
    ExperimentResult* out = &parts[static_cast<std::size_t>(shard) * count];
    Xoshiro256ss rng = experiment_rng(config, shard);
    const int sampled = shard_trials(most_trials, shards, shard);
    for (int trial = 0; trial < sampled; ++trial) {
      const SyndromeHistory history = sample_history(lattice, params, rng);
      for (std::size_t v = 0; v < count; ++v) {
        if (trial < shard_trials(variants[v].trials, shards, shard)) {
          score(variants[v], owned[v].get(), lattice, history, out[v]);
        }
      }
    }
  });
  // Merge in shard order, so the reduction is deterministic.
  std::vector<ExperimentResult> results(count);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    results[i % count].merge(parts[i]);
  }
  for (ExperimentResult& result : results) result.finalize();
  return results;
}

ExperimentResult run_memory_experiment(const DecoderMaker& make,
                                       const ExperimentConfig& config) {
  return run_paired_experiment(
      config, {{.label = "memory", .trials = config.trials, .make = make}})[0];
}

ExperimentResult run_online_experiment(const ExperimentConfig& config,
                                       const OnlineConfig& online) {
  return run_paired_experiment(
      config,
      {{.label = "online", .trials = config.trials, .online = online}})[0];
}

}  // namespace qec
