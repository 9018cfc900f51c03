// Tests for the Monte Carlo harness and the threshold estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "decoder/registry.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/threshold.hpp"

namespace qec {
namespace {

TEST(Threshold, RecoversExactCrossing) {
  // Synthetic power-law curves pl = (p / pth)^k with k growing in d cross
  // exactly at pth.
  const double pth = 0.02;
  std::vector<DistanceCurve> curves;
  for (int d : {5, 7, 9}) {
    DistanceCurve curve;
    curve.distance = d;
    for (double p = 0.005; p <= 0.06; p *= 1.3) {
      curve.points.push_back(
          {p, std::pow(p / pth, (d + 1) / 2.0) * 0.3});
    }
    curves.push_back(curve);
  }
  const auto th = estimate_threshold(curves);
  ASSERT_TRUE(th.has_value());
  EXPECT_NEAR(*th, pth, 0.001);
}

TEST(Threshold, NoCrossingReturnsNullopt) {
  std::vector<DistanceCurve> curves;
  for (int d : {5, 7}) {
    DistanceCurve curve;
    curve.distance = d;
    for (double p = 0.01; p <= 0.05; p *= 1.5) {
      curve.points.push_back({p, p * d});  // strictly ordered, no crossing
    }
    curves.push_back(curve);
  }
  EXPECT_FALSE(estimate_threshold(curves).has_value());
}

TEST(Threshold, IgnoresZeroRatePoints) {
  DistanceCurve a{5, {{0.01, 0.0}, {0.02, 0.1}, {0.04, 0.3}}};
  DistanceCurve b{7, {{0.01, 0.0}, {0.02, 0.05}, {0.04, 0.5}}};
  const auto th = curve_crossing(a, b);
  ASSERT_TRUE(th.has_value());
  EXPECT_GT(*th, 0.02);
  EXPECT_LT(*th, 0.04);
}

TEST(MonteCarlo, ConfigHelpers) {
  const auto pheno = phenomenological_config(7, 0.01, 100);
  EXPECT_EQ(pheno.rounds, 7);
  EXPECT_DOUBLE_EQ(pheno.p_meas, 0.01);
  const auto cc = code_capacity_config(7, 0.05, 100);
  EXPECT_EQ(cc.rounds, 1);
  EXPECT_DOUBLE_EQ(cc.p_meas, 0.0);
}

TEST(MonteCarlo, DeterministicForSameSeed) {
  const auto mwpm = decoder_maker("mwpm");
  const auto cfg = phenomenological_config(5, 0.02, 200, 99);
  const auto a = run_memory_experiment(mwpm, cfg);
  const auto b = run_memory_experiment(mwpm, cfg);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(MonteCarlo, DifferentSeedsGiveDifferentSamples) {
  const auto mwpm = decoder_maker("mwpm");
  const auto a =
      run_memory_experiment(mwpm, phenomenological_config(5, 0.03, 300, 1));
  const auto b =
      run_memory_experiment(mwpm, phenomenological_config(5, 0.03, 300, 2));
  // Not a hard guarantee, but with 300 trials at p = 0.03 a collision of
  // failure counts AND identical CI bounds would be a seeding bug.
  EXPECT_TRUE(a.failures != b.failures || a.ci.upper != b.ci.upper ||
              a.failures > 0);
}

TEST(MonteCarlo, ZeroNoiseNeverFails) {
  ExperimentConfig cfg = phenomenological_config(5, 0.0, 50);
  const auto r = run_memory_experiment(decoder_maker("qecool"), cfg);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_DOUBLE_EQ(r.logical_error_rate, 0.0);
}

TEST(MonteCarlo, FailureRateWithinCi) {
  const auto r = run_memory_experiment(decoder_maker("mwpm"),
                                       phenomenological_config(5, 0.03, 500));
  EXPECT_GE(r.logical_error_rate, r.ci.lower);
  EXPECT_LE(r.logical_error_rate, r.ci.upper);
  EXPECT_EQ(r.trials, 500u);
}

TEST(MonteCarlo, QecoolCollectsMatchStats) {
  const auto r = run_memory_experiment(decoder_maker("qecool"),
                                       phenomenological_config(5, 0.05, 100));
  EXPECT_GT(r.matches.total(), 0u);
}

TEST(MonteCarlo, OnlineExperimentReportsLayerCycles) {
  OnlineConfig online;
  online.cycles_per_round = 2000;
  const auto r =
      run_online_experiment(phenomenological_config(5, 0.005, 100), online);
  EXPECT_GT(r.layer_cycles.count(), 0u);
  EXPECT_GT(r.layer_cycles.mean(), 0.0);
  EXPECT_LE(r.operational_failures, r.failures);
}

TEST(MonteCarlo, OnlineLowFrequencyFailsMoreAtLargeDistance) {
  OnlineConfig slow, fast;
  slow.cycles_per_round = 40;
  fast.cycles_per_round = 4000;
  const auto cfg = phenomenological_config(11, 0.01, 60);
  const auto rs = run_online_experiment(cfg, slow);
  const auto rf = run_online_experiment(cfg, fast);
  EXPECT_GE(rs.failures, rf.failures);
  EXPECT_GT(rs.operational_failures, 0u);
}

}  // namespace
}  // namespace qec
