// Tests for the unified sweep driver: grid enumeration, curve/threshold
// extraction, CSV output, on-line variants, and thread-count invariance.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "decoder/registry.hpp"
#include "sim/sweep.hpp"
#include "stream/trace.hpp"

namespace qec {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.variants.push_back(decoder_variant("qecool", "qecool"));
  grid.variants.push_back(decoder_variant("mwpm", "mwpm"));
  grid.distances = {3, 5};
  grid.ps = {0.01, 0.03};
  grid.trials = 50;
  grid.seed = 7;
  grid.shards = 4;
  return grid;
}

TEST(Sweep, EnumeratesEveryCellVariantMajor) {
  const auto result = run_sweep(small_grid());
  ASSERT_EQ(result.cells.size(), 8u);
  EXPECT_EQ(result.cells[0].variant, "qecool");
  EXPECT_EQ(result.cells[0].distance, 3);
  EXPECT_DOUBLE_EQ(result.cells[0].p, 0.01);
  EXPECT_EQ(result.cells[3].variant, "qecool");
  EXPECT_EQ(result.cells[3].distance, 5);
  EXPECT_DOUBLE_EQ(result.cells[3].p, 0.03);
  EXPECT_EQ(result.cells[4].variant, "mwpm");
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.result.trials, 50u);
  }
}

TEST(Sweep, FindAndCurves) {
  const auto result = run_sweep(small_grid());
  const auto* cell = result.find("mwpm", 5, 0.03);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->decoder, "mwpm");
  EXPECT_EQ(result.find("mwpm", 5, 0.05), nullptr);
  EXPECT_EQ(result.find("uf", 5, 0.03), nullptr);

  const auto curves = result.curves("qecool");
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].distance, 3);
  EXPECT_EQ(curves[1].distance, 5);
  ASSERT_EQ(curves[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(curves[0].points[0].p, 0.01);
}

TEST(Sweep, RoundsFollowTheMode) {
  SweepGrid grid = small_grid();
  const auto three_d = run_sweep(grid);
  EXPECT_EQ(three_d.find("qecool", 5, 0.01)->config.rounds, 5);
  grid.code_capacity = true;
  const auto two_d = run_sweep(grid);
  EXPECT_EQ(two_d.find("qecool", 5, 0.01)->config.rounds, 1);
  EXPECT_DOUBLE_EQ(two_d.find("qecool", 5, 0.01)->config.p_meas, 0.0);
}

TEST(Sweep, PerVariantTrialOverride) {
  SweepGrid grid = small_grid();
  grid.variants[1].trials_for = [](const ExperimentConfig& config) {
    return config.distance == 5 ? 10 : 20;
  };
  const auto result = run_sweep(grid);
  EXPECT_EQ(result.find("qecool", 5, 0.01)->result.trials, 50u);
  EXPECT_EQ(result.find("mwpm", 3, 0.01)->result.trials, 20u);
  EXPECT_EQ(result.find("mwpm", 5, 0.01)->result.trials, 10u);
}

TEST(Sweep, UnknownDecoderFailsBeforeSimulating) {
  SweepGrid grid = small_grid();
  grid.variants.push_back(decoder_variant("bad", "bogus"));
  int cells_run = 0;
  EXPECT_THROW(
      run_sweep(grid, "", [&](const SweepCell&) { ++cells_run; }),
      std::invalid_argument);
  EXPECT_EQ(cells_run, 0);
}

TEST(Sweep, ThreadCountNeverChangesResults) {
  SweepGrid grid = small_grid();
  grid.threads = 1;
  const auto sequential = run_sweep(grid);
  grid.threads = 4;
  const auto parallel = run_sweep(grid);
  ASSERT_EQ(sequential.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < sequential.cells.size(); ++i) {
    EXPECT_EQ(sequential.cells[i].result.failures,
              parallel.cells[i].result.failures);
    EXPECT_EQ(sequential.cells[i].result.matches.total(),
              parallel.cells[i].result.matches.total());
  }
}

TEST(Sweep, OnlineVariantReportsOperationalStats) {
  SweepGrid grid;
  OnlineConfig online;
  online.cycles_per_round = 40;  // starved clock: overflows at d=11
  grid.variants.push_back(online_variant("starved", online));
  grid.distances = {11};
  grid.ps = {0.01};
  grid.trials = 40;
  grid.shards = 4;
  const auto result = run_sweep(grid);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].decoder, "online");
  EXPECT_GT(result.cells[0].result.operational_failures, 0u);
  EXPECT_GT(result.cells[0].overflow_rate(), 0.0);
}

TEST(Sweep, ProgressCallbackSeesEveryCell) {
  int cells_seen = 0;
  run_sweep(small_grid(), "", [&](const SweepCell&) { ++cells_seen; });
  EXPECT_EQ(cells_seen, 8);
}

TEST(Sweep, WritesCsv) {
  const std::string path = ::testing::TempDir() + "sweep_test.csv";
  const auto result = run_sweep(small_grid(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + static_cast<int>(result.cells.size()));
  std::remove(path.c_str());
}

/// An on-line variant, a batch decoder and an MWPM variant whose
/// trials_for leaves it fewer trials than the grid, uneven across shards.
SweepGrid paired_grid() {
  SweepGrid grid;
  OnlineConfig online;
  online.cycles_per_round = 30;  // tight enough to overflow at d=5, p=0.03
  grid.variants.push_back(online_variant("online", online));
  grid.variants.push_back(decoder_variant("qecool", "qecool"));
  grid.variants.push_back(decoder_variant("mwpm", "mwpm"));
  grid.variants.back().trials_for = [](const ExperimentConfig& config) {
    return config.distance == 5 ? 17 : 23;
  };
  grid.distances = {3, 5};
  grid.ps = {0.01, 0.03};
  grid.trials = 61;
  grid.seed = 11;
  grid.shards = 4;
  return grid;
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.failures, b.failures) << where;
  EXPECT_EQ(a.operational_failures, b.operational_failures) << where;
  EXPECT_EQ(a.matches.pair_matches, b.matches.pair_matches) << where;
  EXPECT_EQ(a.matches.self_matches, b.matches.self_matches) << where;
  EXPECT_EQ(a.matches.boundary_matches, b.matches.boundary_matches) << where;
  EXPECT_EQ(a.matches.vertical_ge3, b.matches.vertical_ge3) << where;
  EXPECT_EQ(a.matches.vertical_hist, b.matches.vertical_hist) << where;
  EXPECT_EQ(a.layer_cycles.count(), b.layer_cycles.count()) << where;
  EXPECT_EQ(a.layer_cycles.mean(), b.layer_cycles.mean()) << where;
  EXPECT_EQ(a.layer_cycles.max(), b.layer_cycles.max()) << where;
}

// Every variant of a (d, p) point decodes the same sampled histories; each
// cell must still equal the experiment that variant runs on its own.
TEST(Sweep, SharedHistoriesMatchStandaloneExperiments) {
  for (const int threads : {1, 4}) {
    SweepGrid grid = paired_grid();
    grid.threads = threads;
    const auto result = run_sweep(grid);
    ASSERT_EQ(result.cells.size(), 12u);
    bool overflowed = false;
    for (const SweepCell& cell : result.cells) {
      const SweepVariant& variant =
          cell.variant == "online"   ? grid.variants[0]
          : cell.variant == "qecool" ? grid.variants[1]
                                     : grid.variants[2];
      const ExperimentResult alone =
          variant.online
              ? run_online_experiment(cell.config, *variant.online)
              : run_memory_experiment(decoder_maker(variant.decoder),
                                      cell.config);
      expect_same_result(cell.result, alone,
                         cell.variant + " d=" + std::to_string(cell.distance) +
                             " p=" + std::to_string(cell.p) +
                             " threads=" + std::to_string(threads));
      overflowed |= cell.result.operational_failures > 0;
    }
    EXPECT_EQ(result.find("mwpm", 5, 0.03)->result.trials, 17u);
    EXPECT_EQ(result.find("mwpm", 3, 0.01)->result.trials, 23u);
    EXPECT_GT(result.find("online", 5, 0.03)->result.layer_cycles.count(), 0u);
    EXPECT_TRUE(overflowed);
  }
}

// FNV-1a 64 of the paired grid's CSV, pinned from the sweep as it was when
// every variant sampled its own histories. Never re-pin: a change here means
// a cell no longer decodes the histories it used to.
TEST(Sweep, CsvBytesArePinned) {
  const std::string path = ::testing::TempDir() + "sweep_pin.csv";
  run_sweep(paired_grid(), path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size())));
  EXPECT_EQ(std::string(hex), "4be021c44b64167c");
}

TEST(Sweep, CellWithoutTrialsFailsBeforeSampling) {
  int cells_run = 0;
  const auto count = [&](const SweepCell&) { ++cells_run; };
  SweepGrid grid = paired_grid();
  grid.trials = 0;
  EXPECT_THROW(run_sweep(grid, "", count), std::invalid_argument);

  // Only the last (d, p) point's trials_for result is bad; no earlier
  // point may run either.
  grid = paired_grid();
  grid.variants[2].trials_for = [](const ExperimentConfig& config) {
    return config.distance == 5 && config.p_data == 0.03 ? -1 : 10;
  };
  try {
    run_sweep(grid, "", count);
    ADD_FAILURE() << "a trials_for result of -1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'mwpm'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cells_run, 0);
}

TEST(Sweep, LogSpacedGrid) {
  const auto ps = log_spaced(0.001, 0.1, 3);
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_DOUBLE_EQ(ps.front(), 0.001);
  EXPECT_NEAR(ps[1], 0.01, 1e-12);
  EXPECT_NEAR(ps.back(), 0.1, 1e-12);
  EXPECT_EQ(log_spaced(0.5, 1.0, 1).size(), 1u);
}

}  // namespace
}  // namespace qec
