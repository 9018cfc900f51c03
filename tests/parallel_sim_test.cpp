// Determinism tests for the sharded Monte Carlo engine: a parallel run must
// be bit-identical to a sequential run of the same shard schedule, and the
// merge primitives it relies on must agree with their streaming forms.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/stats.hpp"
#include "decoder/registry.hpp"
#include "sim/executor.hpp"
#include "sim/monte_carlo.hpp"

namespace qec {
namespace {

void expect_same(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.operational_failures, b.operational_failures);
  EXPECT_EQ(a.matches.pair_matches, b.matches.pair_matches);
  EXPECT_EQ(a.matches.self_matches, b.matches.self_matches);
  EXPECT_EQ(a.matches.boundary_matches, b.matches.boundary_matches);
  EXPECT_EQ(a.matches.vertical_hist, b.matches.vertical_hist);
  EXPECT_EQ(a.layer_cycles.count(), b.layer_cycles.count());
  // Merges happen in shard order on both sides, so even the floating-point
  // reductions are performed in an identical sequence.
  EXPECT_DOUBLE_EQ(a.layer_cycles.mean(), b.layer_cycles.mean());
  EXPECT_DOUBLE_EQ(a.layer_cycles.variance(), b.layer_cycles.variance());
}

TEST(RunningStatsMerge, MatchesStreamingAccumulation) {
  RunningStats whole, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i * i - 5.0 * i + 2.0;
    whole.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsMerge, EmptySidesAreIdentity) {
  RunningStats stats, empty;
  stats.add(1.0);
  stats.add(3.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);

  RunningStats fresh;
  fresh.merge(stats);
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh.mean(), 2.0);
  EXPECT_DOUBLE_EQ(fresh.min(), 1.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 3.0);
}

TEST(MatchStatsMerge, AddsCountersAndHistogram) {
  MatchStats a, b;
  a.pair_matches = 2;
  a.record(1);
  a.record(4);
  b.self_matches = 1;
  b.boundary_matches = 3;
  b.record(6);
  a.merge(b);
  EXPECT_EQ(a.pair_matches, 2u);
  EXPECT_EQ(a.self_matches, 1u);
  EXPECT_EQ(a.boundary_matches, 3u);
  EXPECT_EQ(a.total(), 6u);
  EXPECT_EQ(a.vertical_ge3, 2u);  // dt=4 and dt=6
  ASSERT_EQ(a.vertical_hist.size(), 7u);
  EXPECT_EQ(a.vertical_hist[1], 1u);
  EXPECT_EQ(a.vertical_hist[4], 1u);
  EXPECT_EQ(a.vertical_hist[6], 1u);
}

TEST(ExperimentRng, ShardStreamsAreDistinct) {
  const ExperimentConfig config = phenomenological_config(5, 0.01, 100);
  Xoshiro256ss s0 = experiment_rng(config, 0);
  Xoshiro256ss s1 = experiment_rng(config, 1);
  Xoshiro256ss s0_again = experiment_rng(config, 0);
  EXPECT_NE(s0(), s1());
  Xoshiro256ss fresh = experiment_rng(config, 0);
  EXPECT_EQ(fresh(), s0_again());
}

TEST(ExperimentRng, TinyProbabilitiesStillPerturbTheStream) {
  // The old mixing cast p * 1e12 to an integer, so any p below 1e-12
  // collapsed to the same stream. The IEEE-754 bit mixing must not.
  ExperimentConfig a = phenomenological_config(5, 1e-15, 100);
  ExperimentConfig b = phenomenological_config(5, 2e-15, 100);
  ExperimentConfig zero = phenomenological_config(5, 0.0, 100);
  EXPECT_NE(experiment_rng(a)(), experiment_rng(b)());
  EXPECT_NE(experiment_rng(a)(), experiment_rng(zero)());
}

TEST(ExperimentRng, PMeasPerturbsIndependentlyOfPData) {
  ExperimentConfig a = phenomenological_config(5, 0.01, 100);
  ExperimentConfig b = a;
  b.p_data = 0.02;
  ExperimentConfig c = a;
  c.p_meas = 0.02;
  EXPECT_NE(experiment_rng(a)(), experiment_rng(b)());
  EXPECT_NE(experiment_rng(a)(), experiment_rng(c)());
  EXPECT_NE(experiment_rng(b)(), experiment_rng(c)());
}

TEST(ParallelExecutor, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, 4, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](int i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelExecutor, ResolveThreadsHandlesAutoAndExplicit) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-1), 1);
}

TEST(ShardedMemory, ParallelMatchesSequentialBitForBit) {
  ExperimentConfig config = phenomenological_config(5, 0.02, 240, 77);
  config.shards = 8;
  const auto maker = decoder_maker("qecool");

  config.threads = 1;
  const auto sequential = run_memory_experiment(maker, config);
  config.threads = 4;
  const auto parallel = run_memory_experiment(maker, config);
  EXPECT_GT(sequential.failures, 0u);
  expect_same(sequential, parallel);
}

TEST(ShardedMemory, DefaultConfigIsTheLegacySingleStream) {
  // threads = 1, shards = 0 must resolve to exactly one shard whose stream
  // is the un-jumped mixed seed — the pre-sharding sequential behaviour.
  ExperimentConfig config = phenomenological_config(5, 0.02, 100, 5);
  EXPECT_EQ(resolve_shards(config), 1);
  const auto mwpm = decoder_maker("mwpm");
  const auto implicit = run_memory_experiment(mwpm, config);
  config.shards = 1;
  const auto explicit_one = run_memory_experiment(mwpm, config);
  expect_same(implicit, explicit_one);
}

TEST(ShardedMemory, ShardCountChangesTheSampledStreams) {
  // Shards are independent streams, so the schedule is part of the seed
  // contract; document that by expecting *different* samples.
  ExperimentConfig one = phenomenological_config(5, 0.03, 400, 9);
  ExperimentConfig many = one;
  many.shards = 8;
  const auto mwpm = decoder_maker("mwpm");
  const auto a = run_memory_experiment(mwpm, one);
  const auto b = run_memory_experiment(mwpm, many);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.failures != b.failures || a.matches.total() != b.matches.total());
}

TEST(ShardedMemory, MoreShardsThanTrialsIsSafe) {
  ExperimentConfig config = phenomenological_config(3, 0.02, 5, 1);
  config.shards = 16;
  config.threads = 4;
  const auto result = run_memory_experiment(decoder_maker("mwpm"), config);
  EXPECT_EQ(result.trials, 5u);
}

TEST(ShardedOnline, ParallelMatchesSequentialBitForBit) {
  ExperimentConfig config = phenomenological_config(5, 0.01, 160, 13);
  config.shards = 8;
  OnlineConfig online;
  online.cycles_per_round = 2000;

  config.threads = 1;
  const auto sequential = run_online_experiment(config, online);
  config.threads = 4;
  const auto parallel = run_online_experiment(config, online);
  EXPECT_GT(sequential.layer_cycles.count(), 0u);
  expect_same(sequential, parallel);
}

}  // namespace
}  // namespace qec
