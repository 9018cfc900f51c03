// Replays the fuzz corpus — the seed matrix `engine_fuzz --save-corpus`
// writes, recorded here in-process, plus any minimized reproducers checked
// into tests/corpus/ — through the full differential-oracle battery, and
// runs the harness's mutation-testing self-check: a deliberately planted
// engine bug (behind the test-only QecoolConfig::test_fault flag) must be
// FOUND by the fuzzer and shrunk to a small reproducer — otherwise the
// oracles are decorative.
#include "fuzz/fuzzer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/minimize.hpp"
#include "fuzz/oracle.hpp"
#include "qecool/config.hpp"
#include "stream/trace.hpp"

#ifndef QEC_CORPUS_DIR
#error "corpus_replay_test requires the QEC_CORPUS_DIR compile definition"
#endif

namespace qec::fuzz {
namespace {

/// A per-process temp directory, removed when the test binary exits.
struct ScratchDir {
  ScratchDir() { std::filesystem::create_directories(path); }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) /
      ("corpus_replay_" + std::to_string(::getpid()));
};

/// The seed matrix saved under a ScratchDir, then every checked-in
/// tests/corpus/*.qtrc. Recorded once per test binary.
const std::vector<std::string>& corpus_paths() {
  static const ScratchDir dir;
  static const std::vector<std::string> paths = [] {
    std::vector<std::string> out;
    for (const FuzzSeedSpec& spec : default_seed_matrix()) {
      out.push_back((dir.path / seed_file_name(spec)).string());
      record_seed(spec).save(out.back());
    }
    for (auto& path : list_corpus(QEC_CORPUS_DIR)) out.push_back(path);
    return out;
  }();
  return paths;
}

OracleConfig replay_config(double cycles) {
  OracleConfig config;
  config.online.cycles_per_round = cycles;
  return config;
}

TEST(CorpusReplay, CorpusIsPresent) {
  EXPECT_GE(corpus_paths().size(), default_seed_matrix().size())
      << "the seed matrix must be recorded";
}

TEST(CorpusReplay, EveryEntryPassesAllOracles) {
  // The replay matrix: unconstrained and budgeted service rates. Every
  // arm disagreement — checkpoint/resume, invariants, bit-op
  // backends — fails the entry.
  ASSERT_FALSE(corpus_paths().empty());
  for (const double cycles : {0.0, 4.0}) {
    const ReplayReport report =
        replay_corpus(corpus_paths(), replay_config(cycles), /*threads=*/1);
    EXPECT_EQ(report.failures, 0) << "cycles=" << cycles << "\n"
                                  << report.to_text();
  }
}

TEST(CorpusReplay, ReportBytesIdenticalAcrossThreadCounts) {
  ASSERT_FALSE(corpus_paths().empty());
  const OracleConfig config = replay_config(4.0);
  const ReplayReport one = replay_corpus(corpus_paths(), config, 1);
  const ReplayReport four = replay_corpus(corpus_paths(), config, 4);
  EXPECT_EQ(one.to_text(), four.to_text());
  EXPECT_EQ(one.failures, four.failures);
}

TEST(CorpusReplay, ReplayDetectsPerturbedEntry) {
  // Self-check of the replay harness itself: mutate one corpus entry's
  // defect pattern (re-signed via rewrite_payload, so the loader accepts
  // it) enough to change the decode outcome... a perturbed trace is a
  // *different valid input*, so every oracle still agrees on it. The
  // detection the harness owes us is for a perturbed ENGINE, which the
  // planted-fault tests below exercise. What replay must catch here is a
  // corpus file whose bytes no longer load (bit rot / bad checksum).
  const auto& paths = corpus_paths();
  ASSERT_FALSE(paths.empty());
  const std::string victim = std::string(::testing::TempDir()) + "/rot.qtrc";
  {
    const SyndromeTrace trace = SyndromeTrace::load(paths.front());
    trace.save(victim);
  }
  // Corrupt one payload byte WITHOUT re-signing: replay must flag it.
  {
    FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(SyndromeTrace::payload_offset()), SEEK_SET);
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  const ReplayReport report =
      replay_corpus({victim}, replay_config(4.0), /*threads=*/1);
  EXPECT_EQ(report.failures, 1);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_FALSE(report.entries[0].ok);
  std::remove(victim.c_str());
}

FuzzConfig self_check_config(int fault) {
  FuzzConfig config;
  FuzzSeedSpec spec;
  spec.distance = 5;
  spec.p = 3e-3;
  spec.lanes = 2;
  spec.rounds = 12;
  spec.seed = 2022;
  config.seeds = {spec};
  config.oracle = replay_config(4.0);
  config.oracle.fault = fault;
  config.rng_seed = 9;
  config.max_iterations = 60;
  config.max_failures = 1;
  return config;
}

TEST(FuzzSelfCheck, PlantedPauseRoundBugIsFoundAndShrunk) {
  // kFaultPauseRound makes pause() count the pause as an accepted round —
  // a cold-path bug invisible to everything except the checkpoint arm,
  // the one oracle that pauses, whose rounds_stepped() then drifts from
  // the baseline arm's. The fuzzer must find a violating trace within a
  // bounded run and the minimizer must shrink it hard.
  const FuzzStats stats =
      run_fuzzer(self_check_config(QecoolConfig::kFaultPauseRound));
  ASSERT_TRUE(stats.found_failure())
      << "the oracle battery cannot see a planted pause bug";
  const FuzzFailure& failure = stats.failures.front();
  EXPECT_NE(failure.summary.find("checkpoint"), std::string::npos)
      << failure.summary;
  EXPECT_LE(failure.minimized.lanes(), 2);
  EXPECT_LE(failure.minimized.rounds(), 8);

  // The reproducer is real: it fails with the fault, passes without.
  OracleConfig with_fault = replay_config(4.0);
  with_fault.fault = QecoolConfig::kFaultPauseRound;
  EXPECT_FALSE(run_oracles(failure.minimized, with_fault).ok());
  EXPECT_TRUE(run_oracles(failure.minimized, replay_config(4.0)).ok());
}

TEST(FuzzSelfCheck, PlantedCycleAccountingBugIsFound) {
  // kFaultCycleReport makes run() under-report consumed cycles by one —
  // caught by the invariant probe's conservation check (the cycle counter
  // must advance by exactly what run() reports).
  const FuzzStats stats =
      run_fuzzer(self_check_config(QecoolConfig::kFaultCycleReport));
  ASSERT_TRUE(stats.found_failure())
      << "the invariant probe cannot see a planted accounting bug";
  EXPECT_NE(stats.failures.front().summary.find("invariant"),
            std::string::npos)
      << stats.failures.front().summary;
}

TEST(FuzzSelfCheck, CleanSeededRunReportsNoDivergence) {
  // The inverse direction: without a planted fault, a bounded seeded run
  // over the default matrix must be silent — the acceptance bar for the
  // CI fuzz smoke job.
  FuzzConfig config;
  config.oracle = replay_config(4.0);
  config.rng_seed = 1;
  config.max_iterations = 40;
  const FuzzStats stats = run_fuzzer(config);
  EXPECT_FALSE(stats.found_failure())
      << stats.failures.front().summary;
  EXPECT_GT(stats.coverage_cells, 0);
  EXPECT_GT(stats.corpus_size, 0);
}

}  // namespace
}  // namespace qec::fuzz
