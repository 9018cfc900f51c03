#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fuzz/mutate.hpp"
#include "sim/executor.hpp"
#include "stream/service.hpp"

namespace qec::fuzz {

namespace fs = std::filesystem;

std::vector<FuzzSeedSpec> default_seed_matrix() {
  std::vector<FuzzSeedSpec> seeds;
  int i = 0;
  for (const int d : {5, 9}) {
    for (const double p : {1e-4, 3e-3}) {
      FuzzSeedSpec spec;
      spec.distance = d;
      spec.p = p;
      spec.lanes = 2;
      spec.rounds = 12;
      spec.seed = 2021 + static_cast<std::uint64_t>(i++);
      seeds.push_back(spec);
    }
  }
  return seeds;
}

std::vector<std::string> list_corpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".qtrc") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

SyndromeTrace record_seed(const FuzzSeedSpec& spec) {
  StreamConfig config;
  config.lanes = spec.lanes;
  config.distance = spec.distance;
  config.p = spec.p;
  config.rounds = spec.rounds;
  config.seed = spec.seed;
  return record_trace(config);
}

std::string seed_file_name(const FuzzSeedSpec& spec) {
  char name[64];
  std::snprintf(name, sizeof(name), "seed-d%d-p%g-l%d-r%d.qtrc",
                spec.distance, spec.p, spec.lanes, spec.rounds);
  return name;
}

namespace {

std::string save_trace(const SyndromeTrace& trace, const std::string& dir,
                       const std::string& name) {
  if (dir.empty()) return {};
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = (fs::path(dir) / name).string();
  trace.save(path);
  return path;
}

}  // namespace

FuzzStats run_fuzzer(const FuzzConfig& config) {
  if (config.max_iterations <= 0 && config.time_budget_s <= 0.0) {
    throw std::invalid_argument(
        "run_fuzzer: set max_iterations and/or time_budget_s");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // The window-boundary mutation operator aligns against the engine shape
  // the oracles actually run.
  const QecoolConfig& engine = config.oracle.online.engine;
  TraceMutator mutator(config.rng_seed, {engine.reg_depth, engine.thv});
  Xoshiro256ss& rng = mutator.rng();

  FuzzStats stats;
  std::vector<SyndromeTrace> corpus;

  // Runs the oracles on `trace`; a failure is minimized, saved and
  // recorded. Returns true when the trace failed.
  const auto check = [&](const SyndromeTrace& trace, int iteration) -> bool {
    const OracleReport report = run_oracles(trace, config.oracle);
    ++stats.oracle_runs;
    if (!report.ok()) {
      FuzzFailure failure;
      failure.summary = summarize_report(report);
      failure.iteration = iteration;
      failure.trace = trace;
      const auto idx = std::to_string(stats.failures.size());
      failure.original_path =
          save_trace(trace, config.out_dir, "failure-" + idx + ".qtrc");
      if (config.minimize) {
        MinimizeResult min = minimize_trace(
            trace,
            [&](const SyndromeTrace& candidate) {
              ++stats.oracle_runs;
              return !run_oracles(candidate, config.oracle).ok();
            });
        failure.minimized = std::move(min.trace);
        failure.predicate_calls = min.predicate_calls;
      } else {
        failure.minimized = trace;
      }
      failure.saved_path = save_trace(failure.minimized, config.out_dir,
                                      "failure-" + idx + ".min.qtrc");
      stats.failures.push_back(std::move(failure));
      return true;
    }
    return false;
  };

  // The corpus: the recorded seed matrix plus any on-disk traces, checked
  // once (iteration -1). Passing entries become the fixed parent pool.
  const auto admit = [&](SyndromeTrace trace) -> bool {
    if (check(trace, -1)) return true;
    corpus.push_back(std::move(trace));
    return false;
  };
  const std::vector<FuzzSeedSpec> seeds =
      config.seeds.empty() ? default_seed_matrix() : config.seeds;
  for (const auto& spec : seeds) {
    if (admit(record_seed(spec))) break;
  }
  for (const auto& path : list_corpus(config.corpus_dir)) {
    if (static_cast<int>(stats.failures.size()) >= config.max_failures) break;
    admit(SyndromeTrace::load(path));
  }
  if (corpus.empty() && stats.failures.empty()) {
    throw std::runtime_error("run_fuzzer: empty initial corpus");
  }

  // The blind loop: pick a parent, mutate, run the oracles.
  int iteration = 0;
  while (static_cast<int>(stats.failures.size()) < config.max_failures &&
         !corpus.empty()) {
    if (config.max_iterations > 0 && iteration >= config.max_iterations) break;
    if (config.time_budget_s > 0.0 && elapsed() >= config.time_budget_s) break;

    const std::size_t pick = rng.below(corpus.size());
    SyndromeTrace child = corpus[pick];

    // Occasionally cross with a same-geometry sibling, then stack a few
    // point mutations (AFL havoc-style).
    if (corpus.size() > 1 && rng.below(8) == 0) {
      const std::size_t donor =
          (pick + 1 + rng.below(corpus.size() - 1)) % corpus.size();
      mutator.splice(child, corpus[donor]);
    }
    const int stack = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < stack; ++i) {
      mutator.mutate(child);
    }

    check(child, iteration);
    ++iteration;
  }

  stats.iterations = iteration;
  stats.elapsed_s = elapsed();
  return stats;
}

std::string ReplayReport::to_text() const {
  std::ostringstream out;
  for (const auto& entry : entries) {
    out << fs::path(entry.path).filename().string() << ": " << entry.summary
        << "\n";
  }
  out << entries.size() << " entries, " << failures << " failures\n";
  return out.str();
}

ReplayReport replay_corpus(const std::vector<std::string>& paths,
                           const OracleConfig& config, int threads) {
  ReplayReport report;
  report.entries.resize(paths.size());
  // Per-entry slots filled in parallel, assembled in input order — the
  // report bytes are a pure function of (paths, config).
  parallel_for(static_cast<int>(paths.size()), threads, [&](int i) {
    ReplayEntry& entry = report.entries[static_cast<std::size_t>(i)];
    entry.path = paths[static_cast<std::size_t>(i)];
    try {
      const SyndromeTrace trace = SyndromeTrace::load(entry.path);
      const OracleReport r = run_oracles(trace, config);
      entry.summary = summarize_report(r);
      entry.ok = r.ok();
    } catch (const std::exception& e) {
      entry.summary = std::string("load error: ") + e.what();
      entry.ok = false;
    }
  });
  for (const auto& entry : report.entries) {
    if (!entry.ok) ++report.failures;
  }
  return report;
}

}  // namespace qec::fuzz
