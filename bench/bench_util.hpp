// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/slo.hpp"
#include "stream/service.hpp"

namespace qec::bench {

/// snprintf-to-std::string with a printf spec (CSV/table cells).
inline std::string fmt(double value, const char* spec = "%.4g") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), spec, value);
  return buffer;
}

/// Estimated expected defect count for a phenomenological run (empirical
/// density ~= 4.9 p per check per layer; see DESIGN.md).
inline double expected_defects(int distance, double p, int rounds) {
  return 4.9 * p * distance * (distance - 1) * (rounds + 1);
}

/// MWPM decode cost grows ~cubically in the defect count; adapt the trial
/// count so a single sweep point stays within `budget_ms` while never
/// dropping below a statistical floor.
inline int mwpm_trials(int base, int distance, double p, int rounds,
                       double budget_ms = 10000.0) {
  const double defects = expected_defects(distance, p, rounds);
  const double cost_ms = 1.2e-5 * defects * defects * defects + 0.05;
  const int affordable = static_cast<int>(budget_ms / cost_ms);
  return std::clamp(affordable, 24, base);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==== %s ====\n", title);
  std::printf("reproduces: %s\n\n", paper_ref);
}

/// Uniform "--foo-csv=FILE written" reporting: prints the success line or
/// the cannot-write error. Returns `ok` so callers can fold it into their
/// exit status (`if (!report_written(...)) return 1;`).
inline bool report_written(bool ok, const std::string& what,
                           const std::string& path) {
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("%s written to %s\n", what.c_str(), path.c_str());
  return true;
}

// ---- observability flags of the streaming benches ----------------------

/// --help lines for the flags ObsCli owns; benches append them to their
/// own option list. Sweeps turn the flags on for every cell and write the
/// files from the last cell.
inline constexpr const char* kObsOptions =
    "  --trace-json=FILE     event timeline as Chrome trace JSON (open in\n"
    "                        Perfetto / chrome://tracing; ts = logical round)\n"
    "  --trace-ring=16384    per-track event ring capacity (flight recorder:\n"
    "                        oldest events drop once full)\n"
    "  --metrics-csv=FILE    windowed metrics time-series CSV\n"
    "  --metrics-window=64   rounds per metrics window\n"
    "  --profile-csv=FILE    per-stage wall-clock self-profile CSV (enables\n"
    "                        profiling; wall-clock values are explicitly\n"
    "                        non-deterministic — docs/observability.md)\n"
    "  --slo=SPEC            SLO burn-rate objectives, e.g.\n"
    "                        'sojourn_p99<8,window=256' (implies windowed\n"
    "                        metrics; verdicts are thread-count invariant)\n"
    "  --slo-csv=FILE        per-window SLO verdict CSV\n"
    "  --prom-snapshot=FILE  Prometheus text-exposition snapshot of the\n"
    "                        final cumulative metrics (implies metrics)\n";

/// The obs flag set every streaming bench shares (kObsOptions): parses the
/// flags into a StreamObsConfig, keeps a run's obs objects, and writes the
/// requested exports from them.
class ObsCli {
 public:
  ObsCli(const CliArgs& args, StreamObsConfig& obs)
      : trace_json_(args.get_or("trace-json", "")),
        metrics_csv_(args.get_or("metrics-csv", "")),
        profile_csv_(args.get_or("profile-csv", "")),
        slo_csv_(args.get_or("slo-csv", "")),
        prom_snapshot_(args.get_or("prom-snapshot", "")) {
    obs.trace = !trace_json_.empty();
    obs.trace_ring =
        static_cast<int>(args.get_int_or("trace-ring", obs.trace_ring));
    obs.metrics = !metrics_csv_.empty() || !prom_snapshot_.empty();
    obs.metrics_window =
        static_cast<int>(args.get_int_or("metrics-window", obs.metrics_window));
    obs.profile = !profile_csv_.empty();
    obs.slo = args.get_or("slo", "");
  }

  /// Keeps `outcome`'s obs objects for write(); a sweep keeps every cell,
  /// so the last one is written.
  void keep(const StreamOutcome& outcome) {
    kept_.tracer = outcome.tracer;
    kept_.metrics = outcome.metrics;
    kept_.profiler = outcome.profiler;
    kept_.slo = outcome.slo;
  }

  /// Writes every requested export of the kept run, appending `suffix` to
  /// each report line. The exports run inside the kTraceExport profiler
  /// stage, and the profile CSV is written last so it includes them.
  /// Returns false at the first file that cannot be written.
  bool write(const std::string& suffix = "") const {
    const StreamOutcome& o = kept_;
    {
      obs::ScopedStage prof(o.profiler.get(), obs::Stage::kTraceExport);
      if (!trace_json_.empty() && o.tracer &&
          !report_written(
              obs::write_chrome_trace(*o.tracer, trace_json_, o.profiler.get()),
              "event trace (open in Perfetto)" + suffix, trace_json_)) {
        return false;
      }
      if (!metrics_csv_.empty() && o.metrics &&
          !report_written(o.metrics->write_csv(metrics_csv_),
                          "windowed metrics" + suffix, metrics_csv_)) {
        return false;
      }
      if (!slo_csv_.empty() &&
          !report_written(o.slo && o.slo->write_csv(slo_csv_),
                          "slo verdicts" + suffix, slo_csv_)) {
        return false;
      }
      if (!prom_snapshot_.empty() && o.metrics &&
          !report_written(obs::write_prom_snapshot(*o.metrics, o.slo.get(),
                                                   prom_snapshot_),
                          "prometheus snapshot" + suffix, prom_snapshot_)) {
        return false;
      }
    }
    return profile_csv_.empty() || !o.profiler ||
           report_written(o.profiler->write_csv(profile_csv_),
                          "wall-clock profile" + suffix, profile_csv_);
  }

 private:
  std::string trace_json_;
  std::string metrics_csv_;
  std::string profile_csv_;
  std::string slo_csv_;
  std::string prom_snapshot_;
  StreamOutcome kept_;  ///< obs objects only
};

/// The one JSON string escaper (obs/chrome_trace.hpp), under the name
/// perfbench's result writer calls.
using obs::json_escape;

/// HEAD revision of the repo the bench runs from, or "unknown" outside a
/// work tree — provenance for perfbench results.
inline std::string git_revision() {
  std::string rev;
#if defined(_WIN32)
  FILE* pipe = nullptr;
#else
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
#endif
  if (pipe) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe)) rev = buf;
#if !defined(_WIN32)
    ::pclose(pipe);
#endif
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  const bool plausible =
      rev.size() == 40 &&
      rev.find_first_not_of("0123456789abcdef") == std::string::npos;
  return plausible ? rev : "unknown";
}

}  // namespace qec::bench
