// Blind-mutation engine fuzzer CLI (src/fuzz, docs/fuzzing.md). Four
// modes:
//
//   fuzz (default)    mutate defect patterns inside valid QTRC traces and
//                     run the differential-oracle battery; divergences are
//                     minimized and saved as .qtrc reproducers.
//   --replay=DIR      replay every corpus trace through the oracles and
//                     print one verdict line per entry (byte-identical at
//                     any --threads).
//   --minimize=FILE   shrink a failing trace file with the delta-debugging
//                     minimizer and write FILE.min.qtrc.
//   --save-corpus=DIR record the seed matrix as .qtrc files into DIR
//                     (created if missing; corpus_replay_test records the
//                     same seeds in-process).
//
// CI runs: engine_fuzz --time-budget=30 --seed=1 (must find nothing) and
// engine_fuzz --iters=N --inject-fault=NAME --expect-failure for each
// planted fault (the harness self-check: a planted bug must be found).
#include <climits>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/oracle.hpp"
#include "qecool/config.hpp"
#include "stream/trace.hpp"

namespace {

constexpr const char* kSummary =
    "differential fuzzer for the on-line QECOOL engine";

constexpr const char* kOptions =
    "  --time-budget=0      fuzz wall-clock budget in seconds (0: iters only)\n"
    "  --iters=0            fuzz iteration cap (0: time budget only)\n"
    "  --seed=1             fuzzer RNG seed (fixed seed => fixed sequence)\n"
    "  --d=5,9              seed-trace code distances\n"
    "  --p=1e-4,3e-3        seed-trace physical error rates\n"
    "  --lanes=2            lanes per seed trace\n"
    "  --rounds=12          noisy rounds per seed trace\n"
    "  --cycles=4           per-round cycle budget of the oracle arms\n"
    "                       (0: unconstrained)\n"
    "  --thv=3              engine vertical threshold (-1: eager decode)\n"
    "  --corpus=DIR         extra seed traces (*.qtrc) to start from\n"
    "  --out=DIR            write failing inputs + minimized reproducers here\n"
    "  --no-minimize        keep failing inputs unshrunk\n"
    "  --inject-fault=NAME  plant a test-only bug: pause-round |\n"
    "                       cycle-report | full-reg-report (harness\n"
    "                       self-check)\n"
    "  --expect-failure     exit 0 iff the fuzz run FOUND a failure\n"
    "  --replay=DIR         replay mode: run every *.qtrc in DIR\n"
    "  --threads=1          replay worker threads\n"
    "  --report=FILE        also write the replay report to FILE\n"
    "  --minimize=FILE      minimize mode: shrink one failing trace file\n"
    "  --save-corpus=DIR    record the seed matrix into DIR and exit\n";

int parse_fault(const std::string& name) {
  if (name.empty() || name == "none") return qec::QecoolConfig::kFaultNone;
  if (name == "pause-round") return qec::QecoolConfig::kFaultPauseRound;
  if (name == "cycle-report") return qec::QecoolConfig::kFaultCycleReport;
  if (name == "full-reg-report") {
    return qec::QecoolConfig::kFaultFullRegReport;
  }
  throw std::invalid_argument(
      "unknown --inject-fault=" + name +
      " (pause-round | cycle-report | full-reg-report | none)");
}

std::vector<qec::fuzz::FuzzSeedSpec> build_seeds(const qec::CliArgs& args) {
  // Distances span what the trace loader accepts; a trace stores
  // rounds + 1 layers, so rounds stops one short of INT_MAX.
  const auto distances = qec::int_list_flag_in(args, "d", "5,9", 2, 1000);
  const auto ps = qec::split_doubles("p", args.get_or("p", "1e-4,3e-3"));
  const int lanes = qec::int_flag_in(args, "lanes", 2, 1, INT_MAX);
  const int rounds = qec::int_flag_in(args, "rounds", 12, 1, INT_MAX - 1);
  std::vector<qec::fuzz::FuzzSeedSpec> seeds;
  int i = 0;
  for (const int d : distances) {
    for (const double p : ps) {
      qec::fuzz::FuzzSeedSpec spec;
      spec.distance = d;
      spec.p = p;
      spec.lanes = lanes;
      spec.rounds = rounds;
      spec.seed = 2021 + static_cast<std::uint64_t>(i++);
      seeds.push_back(spec);
    }
  }
  return seeds;
}

qec::fuzz::OracleConfig build_oracle(const qec::CliArgs& args) {
  qec::fuzz::OracleConfig oracle;
  oracle.online.cycles_per_round = args.get_double_or("cycles", 4.0);
  oracle.online.engine.thv = qec::int_flag_in(args, "thv", 3, -1, INT_MAX);
  oracle.fault = parse_fault(args.get_or("inject-fault", ""));
  return oracle;
}

int run_replay(const std::string& dir, const qec::fuzz::OracleConfig& oracle,
               int threads, const std::string& report_path) {
  const auto paths = qec::fuzz::list_corpus(dir);
  if (paths.empty()) {
    std::fprintf(stderr, "engine_fuzz: no *.qtrc under %s\n", dir.c_str());
    return 2;
  }
  const auto report = qec::fuzz::replay_corpus(paths, oracle, threads);
  const std::string text = report.to_text();
  std::fputs(text.c_str(), stdout);
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "engine_fuzz: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return report.ok() ? 0 : 1;
}

int run_minimize(const std::string& path,
                 const qec::fuzz::OracleConfig& oracle) {
  const auto trace = qec::SyndromeTrace::load(path);
  const auto failing = [&](const qec::SyndromeTrace& t) {
    return !qec::fuzz::run_oracles(t, oracle).ok();
  };
  if (!failing(trace)) {
    std::fprintf(stderr,
                 "engine_fuzz: %s passes all oracles; nothing to minimize\n",
                 path.c_str());
    return 1;
  }
  const auto result = qec::fuzz::minimize_trace(trace, failing);
  const std::string out = path + ".min.qtrc";
  result.trace.save(out);
  std::printf("%s: %d lanes x %d rounds -> %d lanes x %d rounds (%d runs)\n",
              out.c_str(), trace.lanes(), trace.rounds(), result.trace.lanes(),
              result.trace.rounds(), result.predicate_calls);
  return 0;
}

int run_save_corpus(const std::string& dir, const qec::fuzz::FuzzConfig& config) {
  // One oracle pass over each recorded seed validates it before saving.
  std::filesystem::create_directories(dir);
  for (const auto& spec : config.seeds) {
    const auto trace = qec::fuzz::record_seed(spec);
    const auto report = qec::fuzz::run_oracles(trace, config.oracle);
    if (!report.ok()) {
      std::fprintf(stderr, "engine_fuzz: seed d=%d p=%g diverges: %s\n",
                   spec.distance, spec.p,
                   qec::fuzz::summarize_report(report).c_str());
      return 1;
    }
    const std::string out =
        (std::filesystem::path(dir) / qec::fuzz::seed_file_name(spec)).string();
    trace.save(out);
    std::printf("wrote %s\n", out.c_str());
  }
  return config.seeds.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "engine_fuzz", kSummary, kOptions)) return 0;

  // Every mode's flags are read up front: an unknown one fails any mode.
  const std::string replay_dir = args.get_or("replay", "");
  const std::string minimize_path = args.get_or("minimize", "");
  const std::string save_dir = args.get_or("save-corpus", "");
  const int threads = qec::threads_override(args, 1);
  const std::string report_path = args.get_or("report", "");
  qec::fuzz::FuzzConfig config;
  config.seeds = build_seeds(args);
  config.oracle = build_oracle(args);
  config.rng_seed = static_cast<std::uint64_t>(
      qec::int_flag_in(args, "seed", 1, 0, INT_MAX));
  config.max_iterations = qec::int_flag_in(args, "iters", 0, 0, INT_MAX);
  config.time_budget_s = qec::seconds_flag(args, "time-budget", 0.0);
  if (config.max_iterations <= 0 && config.time_budget_s <= 0.0) {
    config.time_budget_s = 30.0;  // the CI smoke default
  }
  config.corpus_dir = args.get_or("corpus", "");
  config.out_dir = args.get_or("out", "");
  config.minimize = !args.get_flag("no-minimize");
  const bool expect_failure = args.get_flag("expect-failure");
  qec::reject_unread(args);

  if (!replay_dir.empty()) {
    return run_replay(replay_dir, config.oracle, threads, report_path);
  }
  if (!minimize_path.empty()) return run_minimize(minimize_path, config.oracle);
  if (!save_dir.empty()) return run_save_corpus(save_dir, config);

  const auto stats = qec::fuzz::run_fuzzer(config);
  std::printf("fuzz: %d iterations in %.1fs, %llu oracle runs\n",
              stats.iterations, stats.elapsed_s,
              static_cast<unsigned long long>(stats.oracle_runs));
  for (const auto& failure : stats.failures) {
    std::printf("FAILURE (iteration %d): %s\n", failure.iteration,
                failure.summary.c_str());
    std::printf("  input: %d lanes x %d rounds -> minimized %d lanes x %d "
                "rounds (%d predicate runs)\n",
                failure.trace.lanes(), failure.trace.rounds(),
                failure.minimized.lanes(), failure.minimized.rounds(),
                failure.predicate_calls);
    if (!failure.saved_path.empty()) {
      std::printf("  reproducer: %s\n", failure.saved_path.c_str());
    }
  }

  if (expect_failure) {
    if (stats.found_failure()) {
      std::printf("self-check ok: the planted fault was detected\n");
      return 0;
    }
    std::fprintf(stderr,
                 "self-check FAILED: no divergence found — the oracle "
                 "harness is blind\n");
    return 1;
  }
  return stats.found_failure() ? 1 : 0;
} catch (const std::exception& e) {
  return qec::report_failure("engine_fuzz", e);
}
