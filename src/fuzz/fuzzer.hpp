// Coverage-guided engine fuzzer (DESIGN.md section 14, docs/fuzzing.md):
// the AFL loop over QTRC traces. Seeds come from record_trace() (valid
// noise at a few (d, p) points) plus any on-disk corpus; each iteration
// picks a corpus parent, applies a few defect-pattern mutations
// (fuzz/mutate.hpp) or a splice with a same-geometry sibling, and runs the
// differential-oracle battery (fuzz/oracle.hpp). Inputs that light up new
// engine-state coverage cells join the corpus; inputs that diverge are
// shrunk by the delta-debugging minimizer (fuzz/minimize.hpp) and written
// out as loader-valid .qtrc reproducers for the CI corpus_replay_test.
//
// Determinism: one Xoshiro256ss stream drives parent choice and every
// mutation, so (seeds, rng_seed, max_iterations) fully determine the run —
// a CI failure replays locally from the seed alone. The wall-clock budget
// is the only nondeterministic input, and it only truncates the iteration
// sequence, never reorders it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "stream/trace.hpp"

namespace qec::fuzz {

/// One recorded-noise seed point for the initial corpus.
struct FuzzSeedSpec {
  int distance = 5;
  double p = 1e-3;
  int lanes = 2;
  int rounds = 12;
  std::uint64_t seed = 2021;
};

/// The seed matrix the CI smoke run covers: d in {5, 9} x p in {1e-4,
/// 3e-3}, two lanes each.
std::vector<FuzzSeedSpec> default_seed_matrix();

/// Records the seed's noise as a trace (record_trace over the spec).
SyndromeTrace record_seed(const FuzzSeedSpec& spec);

/// The corpus file name a recorded seed is saved under
/// ("seed-d5-p0.0001-l2-r12.qtrc").
std::string seed_file_name(const FuzzSeedSpec& spec);

struct FuzzConfig {
  std::vector<FuzzSeedSpec> seeds;  ///< empty: default_seed_matrix()
  OracleConfig oracle;

  std::uint64_t rng_seed = 1;
  /// Iteration cap; <= 0 means bounded by time_budget_s only.
  int max_iterations = 0;
  /// Wall-clock budget in seconds; <= 0 means bounded by iterations only.
  /// (At least one bound must be set; run_fuzzer throws otherwise.)
  double time_budget_s = 0.0;

  /// Extra seed traces: every *.qtrc under this directory joins the
  /// initial corpus (empty: none).
  std::string corpus_dir;
  /// Where failing inputs and their minimized reproducers are written
  /// (empty: failures are reported but not saved).
  std::string out_dir;

  /// Shrink failures before saving/reporting them.
  bool minimize = true;
  /// Stop after this many distinct failures (a diverging engine fails
  /// everywhere; piles of near-identical reproducers help nobody).
  int max_failures = 4;
  /// In-memory corpus cap; beyond it, low-fitness entries stop being added.
  int max_corpus = 256;

  /// Engine-shape hints for the window-boundary mutation operator; kept in
  /// sync with oracle.online.engine by run_fuzzer.
  MutatorConfig mutator;
};

/// One divergence-producing input, as saved.
struct FuzzFailure {
  std::string summary;        ///< first divergence of the original input
  int iteration = 0;          ///< which fuzz iteration found it
  SyndromeTrace trace;        ///< the original failing input
  SyndromeTrace minimized;    ///< == trace when minimization is off
  int predicate_calls = 0;    ///< minimization cost
  std::string saved_path;     ///< reproducer file ("" when not saved)
  std::string original_path;  ///< unminimized failing input ("" when not saved)
};

struct FuzzStats {
  int iterations = 0;
  int corpus_size = 0;
  int coverage_cells = 0;
  std::uint64_t oracle_runs = 0;
  std::vector<FuzzFailure> failures;
  double elapsed_s = 0.0;

  bool found_failure() const { return !failures.empty(); }
};

/// Runs the fuzz loop to its iteration/time bound. Throws TraceError on an
/// unreadable corpus_dir entry and std::invalid_argument on a bound-less
/// config.
FuzzStats run_fuzzer(const FuzzConfig& config);

/// Per-entry verdict of a corpus replay.
struct ReplayEntry {
  std::string path;
  std::string summary;  ///< summarize_report() of the entry's oracle run
  bool ok = false;
};

struct ReplayReport {
  std::vector<ReplayEntry> entries;  ///< in input order, any thread count
  int failures = 0;

  bool ok() const { return failures == 0; }
  /// One line per entry — byte-identical at any thread count.
  std::string to_text() const;
};

/// Replays every trace file through the full oracle battery. Entries run
/// in parallel over `threads` workers, but the report is assembled in
/// input order from per-entry slots, so the bytes never depend on the
/// thread count — the corpus_replay_test pins this.
ReplayReport replay_corpus(const std::vector<std::string>& paths,
                           const OracleConfig& config, int threads);

/// The *.qtrc files directly under `dir`, sorted by filename (the corpus
/// replay order). Returns an empty list when the directory is missing.
std::vector<std::string> list_corpus(const std::string& dir);

}  // namespace qec::fuzz
