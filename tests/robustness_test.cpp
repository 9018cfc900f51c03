// Robustness / fuzz-style tests: random configurations and budgets must
// never crash, spin, or produce syndrome-inconsistent corrections.
#include <gtest/gtest.h>

#include <stdexcept>

#include "decoder/decoder.hpp"
#include "mwpm/blossom.hpp"
#include "noise/phenomenological.hpp"
#include "qecool/engine.hpp"
#include "qecool/online_runner.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(BlossomEdge, OddVertexCountThrows) {
  BlossomMatcher matcher(3);
  EXPECT_THROW(matcher.solve(), std::invalid_argument);
}

TEST(BlossomEdge, ZeroVerticesIsEmpty) {
  BlossomMatcher matcher(0);
  EXPECT_TRUE(matcher.solve().empty());
  EXPECT_EQ(matcher.matching_weight(), 0);
}

TEST(BlossomEdge, NegativeCountThrows) {
  EXPECT_THROW(BlossomMatcher(-1), std::invalid_argument);
}

TEST(BlossomEdge, BadSetWeightThrows) {
  BlossomMatcher matcher(4);
  EXPECT_THROW(matcher.set_weight(-1, 2, 1), std::invalid_argument);
  EXPECT_THROW(matcher.set_weight(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(matcher.set_weight(2, 2, 1), std::invalid_argument);
  EXPECT_THROW(matcher.set_weight(0, 1, -1), std::invalid_argument);
}

TEST(EnginePush, WrongSizeLayerThrows) {
  // A d = 9 layer pushed into a d = 5 engine (and a short one) must be
  // rejected in every build type, not copied past the Reg slot.
  const PlanarLattice lat(5);
  const PlanarLattice big(9);
  QecoolConfig config;
  config.thv = -1;
  QecoolEngine engine(lat, config);
  const auto checks = static_cast<std::size_t>(lat.num_checks());
  const auto big_checks = static_cast<std::size_t>(big.num_checks());
  for (const std::size_t size : {big_checks, checks - 1, std::size_t{0}}) {
    EXPECT_THROW(engine.push_layer(PackedBits(size)), std::invalid_argument);
    EXPECT_THROW(engine.push_layer(BitVec(size, 1)), std::invalid_argument);
  }
  EXPECT_EQ(engine.stored_layers(), 0);

  OnlineConfig online;
  OnlineStepper stepper(lat, online);
  EXPECT_THROW(stepper.push(PackedBits(big_checks)), std::invalid_argument);
  EXPECT_THROW(stepper.push(BitVec(big_checks, 1)), std::invalid_argument);
  EXPECT_EQ(stepper.rounds_stepped(), 0);
  EXPECT_FALSE(stepper.overflowed());

  // Right-sized layers still go in.
  EXPECT_TRUE(engine.push_layer(PackedBits(checks)));
  EXPECT_TRUE(engine.push_layer(BitVec(checks, 0)));
  EXPECT_TRUE(stepper.push(BitVec(checks, 0)));
  EXPECT_EQ(engine.stored_layers(), 2);
}

TEST(EngineFuzz, RandomPushesAndBudgetsNeverBreakInvariants) {
  Xoshiro256ss rng(31415);
  for (int iteration = 0; iteration < 60; ++iteration) {
    const int d = 3 + 2 * static_cast<int>(rng.below(4));  // 3,5,7,9
    const PlanarLattice lat(d);
    QecoolConfig config;
    config.reg_depth = 2 + static_cast<int>(rng.below(8));
    config.thv = static_cast<int>(rng.below(4)) - 1;  // -1..2
    config.deprioritize_boundary = rng.below(2) != 0;
    QecoolEngine engine(lat, config);

    for (int step = 0; step < 30; ++step) {
      if (rng.below(2)) {
        BitVec layer(static_cast<std::size_t>(lat.num_checks()), 0);
        // Push a random even-ish defect layer.
        const int defects = static_cast<int>(rng.below(5));
        for (int k = 0; k < defects; ++k) {
          layer[rng.below(static_cast<std::uint64_t>(lat.num_checks()))] ^= 1;
        }
        engine.push_layer(layer);  // overflow allowed; must not corrupt
      } else {
        engine.run(rng.below(300));
      }
      // Invariants: stored layers bounded, cycles monotone non-negative,
      // popped count consistent.
      ASSERT_LE(engine.stored_layers(), config.reg_depth);
      ASSERT_GE(engine.stored_layers(), 0);
      ASSERT_EQ(engine.popped_layers(),
                static_cast<int>(engine.layer_cycles().size()));
    }
  }
}

TEST(EngineFuzz, PopAttributionCoversAllPops) {
  const PlanarLattice lat(5);
  QecoolConfig config;
  config.thv = -1;
  config.reg_depth = 10;
  QecoolEngine engine(lat, config);
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  for (int i = 0; i < 10; ++i) engine.push_layer(clean);
  engine.run(QecoolEngine::kUnlimited);
  EXPECT_EQ(engine.popped_layers(), 10);
  std::uint64_t attributed = 0;
  for (std::uint64_t c : engine.layer_cycles()) attributed += c;
  EXPECT_EQ(attributed, engine.total_cycles())
      << "every working cycle must be attributed to some layer";
}

TEST(OnlineFuzz, RandomHistoriesAlwaysTerminate) {
  Xoshiro256ss rng(2718);
  for (int iteration = 0; iteration < 30; ++iteration) {
    const int d = 3 + 2 * static_cast<int>(rng.below(3));
    const PlanarLattice lat(d);
    const double p = 0.005 + 0.05 * rng.uniform();
    const auto h = sample_history(lat, {p, p, d}, rng);
    OnlineConfig config;
    config.cycles_per_round = 1 + rng.below(3000);
    config.max_drain_rounds = 200;
    const auto r = run_online(lat, h, config);
    // Either it drained or it failed operationally; both are terminal.
    ASSERT_TRUE(r.drained || r.failed_operationally());
    if (r.drained) {
      DecodeResult dr;
      dr.correction = r.correction;
      ASSERT_TRUE(residual_syndrome_free(lat, h, dr));
    }
  }
}

TEST(OnlineFuzz, OverflowImpliesOperationalFailure) {
  const PlanarLattice lat(13);
  Xoshiro256ss rng(95);
  OnlineConfig config;
  config.cycles_per_round = 1;
  bool saw_overflow = false;
  for (int trial = 0; trial < 10 && !saw_overflow; ++trial) {
    const auto h = sample_history(lat, {0.03, 0.03, 13}, rng);
    const auto r = run_online(lat, h, config);
    if (r.overflow) {
      saw_overflow = true;
      EXPECT_TRUE(r.failed_operationally());
      EXPECT_FALSE(r.drained);
    }
  }
  EXPECT_TRUE(saw_overflow);
}

}  // namespace
}  // namespace qec
