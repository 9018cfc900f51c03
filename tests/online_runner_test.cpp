// Tests for the on-line QECOOL runner: cadence budgets, Reg overflow, drain.
#include "qecool/online_runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "decoder/decoder.hpp"
#include "noise/phenomenological.hpp"
#include "surface_code/pauli_frame.hpp"

namespace qec {
namespace {

TEST(OnlineRunner, CleanHistoryDrainsTrivially) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(1);
  const auto h = sample_history(lat, {0.0, 0.0, 5}, rng);
  OnlineConfig config;
  config.cycles_per_round = 2000;
  const auto r = run_online(lat, h, config);
  EXPECT_FALSE(r.overflow);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(is_zero(r.correction));
  EXPECT_EQ(static_cast<int>(r.layer_cycles.size()), h.total_rounds());
}

TEST(OnlineRunner, UnlimitedBudgetNeverOverflows) {
  const PlanarLattice lat(9);
  Xoshiro256ss rng(2);
  OnlineConfig config;  // cycles_per_round = 0: unconstrained
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.01, 0.01, 9}, rng);
    const auto r = run_online(lat, h, config);
    ASSERT_FALSE(r.overflow);
    ASSERT_TRUE(r.drained);
    DecodeResult dr;
    dr.correction = r.correction;
    ASSERT_TRUE(residual_syndrome_free(lat, h, dr));
  }
}

TEST(OnlineRunner, TinyBudgetOverflowsUnderLoad) {
  const PlanarLattice lat(13);
  Xoshiro256ss rng(3);
  OnlineConfig slow;
  slow.cycles_per_round = 2;  // absurdly slow decoder clock
  int overflows = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 13}, rng);
    overflows += run_online(lat, h, slow).overflow;
  }
  EXPECT_GT(overflows, 10) << "a 2-cycle budget cannot keep up at d=13";
}

TEST(OnlineRunner, HigherFrequencyNeverHurtsDrainage) {
  const PlanarLattice lat(11);
  Xoshiro256ss rng(4);
  OnlineConfig mhz500, ghz2;
  mhz500.cycles_per_round = cycles_per_microsecond(500e6);
  ghz2.cycles_per_round = cycles_per_microsecond(2e9);
  int slow_overflow = 0, fast_overflow = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = sample_history(lat, {0.015, 0.015, 11}, rng);
    slow_overflow += run_online(lat, h, mhz500).failed_operationally();
    fast_overflow += run_online(lat, h, ghz2).failed_operationally();
  }
  EXPECT_LE(fast_overflow, slow_overflow);
}

TEST(OnlineRunner, NonFiniteBudgetIsRejected) {
  const PlanarLattice lat(5);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    OnlineConfig config;
    config.cycles_per_round = bad;
    EXPECT_THROW(OnlineStepper(lat, config), std::invalid_argument) << bad;
  }
  // A per-call grant goes through spend() directly: NaN and +inf throw
  // (the carry would turn either into an undefined integer budget), while
  // -inf stays "unconstrained" like every grant <= 0.
  OnlineStepper stepper(lat, OnlineConfig{});
  ASSERT_TRUE(stepper.push_clean());
  EXPECT_THROW(stepper.spend(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(stepper.spend(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(stepper.spend(-std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(stepper.drained());
}

TEST(OnlineRunner, CyclesPerMicrosecondHelper) {
  EXPECT_DOUBLE_EQ(cycles_per_microsecond(2e9), 2000.0);
  EXPECT_DOUBLE_EQ(cycles_per_microsecond(1e9), 1000.0);
  EXPECT_DOUBLE_EQ(cycles_per_microsecond(500e6), 500.0);
  // Sub-MHz clocks no longer truncate to 0 ("unconstrained"); fractional
  // budgets survive and accumulate across rounds in OnlineStepper.
  EXPECT_NEAR(cycles_per_microsecond(1.5e6), 1.5, 1e-12);
  EXPECT_NEAR(cycles_per_microsecond(500e3), 0.5, 1e-12);
  EXPECT_GT(cycles_per_microsecond(1.0), 0.0);
}

TEST(OnlineRunner, FractionalBudgetAccumulatesAcrossRounds) {
  // At 1.5 cycles/round the engine must receive 1, 2, 1, 2, ... cycles —
  // 2k rounds of clean input grant exactly 3k cycles of work capacity. A
  // clean history never makes work, so instead compare against the integer
  // envelope: a 0.5-cycle budget must behave strictly worse than 1
  // cycle/round and no better than it, and must NOT behave as unconstrained.
  const PlanarLattice lat(9);
  Xoshiro256ss rng(11);
  OnlineConfig half, one, unconstrained;
  half.cycles_per_round = 0.5;
  one.cycles_per_round = 1.0;
  int half_fail = 0, one_fail = 0, free_fail = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto h = sample_history(lat, {0.01, 0.01, 9}, rng);
    half_fail += run_online(lat, h, half).failed_operationally();
    one_fail += run_online(lat, h, one).failed_operationally();
    free_fail += run_online(lat, h, unconstrained).failed_operationally();
  }
  EXPECT_EQ(free_fail, 0);
  EXPECT_GE(half_fail, one_fail);
  EXPECT_GT(half_fail, 0) << "0.5 cycles/round must not mean unconstrained";
}

TEST(OnlineRunner, IntegerBudgetMatchesLegacyPerRoundGrant) {
  // With an integral budget the fractional carry stays zero, so the new
  // stepper must reproduce the old fixed-grant behaviour exactly.
  const PlanarLattice lat(7);
  Xoshiro256ss rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 7}, rng);
    OnlineConfig config;
    config.cycles_per_round = 300;
    const auto via_runner = run_online(lat, h, config);

    QecoolEngine engine(lat, config.engine);
    bool overflow = false;
    for (const auto& layer : h.difference) {
      if (!engine.push_layer(layer)) {
        overflow = true;
        break;
      }
      engine.run(300);
    }
    const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
    for (int extra = 0; !overflow && extra < config.max_drain_rounds;
         ++extra) {
      if (engine.all_clear() && engine.stored_layers() == 0) break;
      if (!engine.push_layer(clean)) {
        overflow = true;
        break;
      }
      engine.run(300);
    }
    ASSERT_EQ(via_runner.overflow, overflow);
    if (!overflow) {
      ASSERT_EQ(via_runner.correction, engine.correction());
      ASSERT_EQ(via_runner.total_cycles, engine.total_cycles());
    }
  }
}

TEST(OnlineRunner, StepperMatchesRunOnline) {
  const PlanarLattice lat(7);
  Xoshiro256ss rng(13);
  OnlineConfig config;
  config.cycles_per_round = 150.25;
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = sample_history(lat, {0.015, 0.015, 7}, rng);
    const auto direct = run_online(lat, h, config);

    OnlineStepper stepper(lat, config);
    for (const auto& layer : h.difference) {
      if (!stepper.push(layer)) break;
      stepper.spend(config.cycles_per_round);
    }
    for (int extra = 0;
         !stepper.overflowed() && extra < config.max_drain_rounds; ++extra) {
      if (stepper.drained()) break;
      if (!stepper.push_clean()) break;
      stepper.spend(config.cycles_per_round);
    }
    const auto stepped = stepper.result();
    ASSERT_EQ(direct.overflow, stepped.overflow);
    ASSERT_EQ(direct.drained, stepped.drained);
    ASSERT_EQ(direct.correction, stepped.correction);
    ASSERT_EQ(direct.total_cycles, stepped.total_cycles);
    ASSERT_EQ(direct.layer_cycles, stepped.layer_cycles);
  }
}

TEST(OnlineRunner, ZeroBudgetRoundsAccumulateBacklog) {
  // A lane denied service only queues: pushes without spend() grow the
  // stored-layer count one per round, consume no cycles, and overflow the
  // Reg exactly when the (reg_depth + 1)-th layer arrives.
  const PlanarLattice lat(5);
  OnlineConfig config;
  config.cycles_per_round = 64;
  OnlineStepper stepper(lat, config);
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  for (int round = 1; round <= config.engine.reg_depth; ++round) {
    ASSERT_TRUE(stepper.push(clean));
    EXPECT_EQ(stepper.engine().stored_layers(), round);
  }
  EXPECT_EQ(stepper.engine().total_cycles(), 0u);
  EXPECT_FALSE(stepper.push(clean)) << "Reg must overflow at depth + 1";
  EXPECT_TRUE(stepper.overflowed());
  EXPECT_EQ(stepper.spend(1000.0), 0u) << "spend after overflow is a no-op";
}

TEST(OnlineRunner, FractionalSpendCarriesDeficitAcrossGrants) {
  // Two 0.5-cycle grants must execute one cycle on the second grant; a
  // grant the lane never receives must NOT bank cycles (no spend call, no
  // carry growth). Use a backlog that leaves the engine with work so a
  // granted cycle is visibly consumed.
  const PlanarLattice lat(5);
  OnlineConfig config;  // budget irrelevant: spend() is driven by hand
  OnlineStepper stepper(lat, config);
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  // Build enough backlog that clean base layers are poppable work.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(stepper.push(clean));
  EXPECT_EQ(stepper.spend(0.5), 0u) << "half a cycle buys nothing yet";
  EXPECT_EQ(stepper.engine().total_cycles(), 0u);
  EXPECT_EQ(stepper.spend(0.5), 1u) << "the carried half completes a cycle";
  EXPECT_EQ(stepper.engine().total_cycles(), 1u);
}

TEST(OnlineRunner, MaxDrainRoundsExhaustionReportsUndrained) {
  // With max_drain_rounds = 0 the thv gate guarantees failure whenever the
  // last layers carry defects (a base layer is decoded only once m - b >
  // thv, and without drain pushes m never grows): the run must end
  // undrained — flagged by failed_operationally() — yet never overflow,
  // while the same histories drain fine with the default drain budget.
  const PlanarLattice lat(9);
  Xoshiro256ss rng(14);
  int undrained = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = sample_history(lat, {0.02, 0.02, 9}, rng);
    OnlineConfig no_drain;  // unconstrained clock
    no_drain.max_drain_rounds = 0;
    const auto r = run_online(lat, h, no_drain);
    EXPECT_FALSE(r.overflow);
    if (!r.drained) {
      ++undrained;
      EXPECT_TRUE(r.failed_operationally());
    }
    OnlineConfig with_drain;
    const auto full = run_online(lat, h, with_drain);
    EXPECT_TRUE(full.drained);
  }
  EXPECT_GT(undrained, 5) << "expected drain-budget exhaustion at p=0.02";
}

TEST(OnlineRunner, ZeroDefectHistoryDrainsWithoutMatches) {
  // A defect-free history must drain cleanly: no overflow, no matches, no
  // correction. (Clean layers still cost row-skip/pop cycles — the QEC
  // cycle never stops — so the budget must cover the pop cadence.)
  const PlanarLattice lat(7);
  SyndromeHistory h;
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  h.measured.assign(8, clean);
  h.difference = difference_syndromes(h.measured);
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);

  OnlineConfig config;
  config.cycles_per_round = 64;
  const auto r = run_online(lat, h, config);
  EXPECT_FALSE(r.overflow);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(is_zero(r.correction));
  EXPECT_EQ(r.matches.total(), 0u);
  EXPECT_EQ(static_cast<int>(r.layer_cycles.size()), 8);
}

TEST(OnlineRunner, MatchStatsAccumulate) {
  const PlanarLattice lat(5);
  Xoshiro256ss rng(5);
  OnlineConfig config;
  config.cycles_per_round = 2000;
  int with_matches = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto h = sample_history(lat, {0.05, 0.05, 5}, rng);
    const auto r = run_online(lat, h, config);
    if (r.matches.total() > 0) ++with_matches;
  }
  EXPECT_GT(with_matches, 5);
}

TEST(OnlineRunner, OnlineAndBatchAgreeOnIsolatedErrors) {
  // For a single data error the on-line decoder must produce exactly the
  // same (unique, minimal) correction as batch.
  const PlanarLattice lat(5);
  const int q = lat.horizontal_qubit(2, 2);
  SyndromeHistory h;
  h.final_error.assign(static_cast<std::size_t>(lat.num_data()), 0);
  h.final_error[static_cast<std::size_t>(q)] = 1;
  const BitVec synd = lat.syndrome(h.final_error);
  const BitVec clean(static_cast<std::size_t>(lat.num_checks()), 0);
  h.measured = {clean, synd, synd, synd, synd};
  h.difference = difference_syndromes(h.measured);

  OnlineConfig config;
  config.cycles_per_round = 2000;
  const auto r = run_online(lat, h, config);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.correction, h.final_error);
}

TEST(OnlineRunner, RegDepthAblation) {
  // Shrinking the Reg queue to the minimum (thv + 1) must only increase
  // overflow incidence relative to the paper's 7-entry margin.
  const PlanarLattice lat(13);
  Xoshiro256ss rng(6);
  OnlineConfig margin7, tight4;
  margin7.cycles_per_round = 400;
  tight4.cycles_per_round = 400;
  tight4.engine.reg_depth = 4;
  int overflow7 = 0, overflow4 = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto h = sample_history(lat, {0.01, 0.01, 13}, rng);
    overflow7 += run_online(lat, h, margin7).overflow;
    overflow4 += run_online(lat, h, tight4).overflow;
  }
  EXPECT_LE(overflow7, overflow4);
}

}  // namespace
}  // namespace qec
