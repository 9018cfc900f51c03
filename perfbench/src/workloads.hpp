// The benchmark's four workloads (see perfbench/README.md for why each
// exists). A workload builds its inputs from the seed in setup(), runs one
// closed-loop iteration per iterate() call, checks the library's outputs
// after every iteration, and — in the traced run only — measures each layer
// it exercises through probe().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2021;
  int threads = 1;     ///< worker threads handed to the library
  bool smoke = false;  ///< tiny inputs for the benchmark's own tests
  std::string out_dir;  ///< where exports and traces are written
};

/// One timed iteration. Times are wall-clock seconds of the calls made
/// inside the iteration; correctness checks run after the clock stops.
struct Iteration {
  double wall_s = 0.0;    ///< the whole iteration
  double input_s = 0.0;   ///< record_trace, SyndromeTrace::load, or run_sweep
  double decode_s = 0.0;  ///< run_stream, or run_sweep
  double cpu_s = 0.0;     ///< user + system CPU time of the process
  std::int64_t lane_rounds = 0;  ///< decoded syndrome layers
  std::int64_t trials = 0;       ///< memory experiments (lanes or MC trials)

  // Export stage breakdown (milliseconds) and bytes written.
  double trace_export_ms = 0.0;
  double metrics_export_ms = 0.0;
  double csv_export_ms = 0.0;
  std::int64_t export_bytes = 0;

  /// Per-layer values read off the library's outputs, keyed by metric
  /// name: cache fractions, event-ring counts, and (traced stream
  /// iterations) the profiler's stage totals.
  std::map<std::string, double> counters;

  std::vector<std::string> errors;  ///< failed correctness checks
};

/// Per-layer metric values of the traced run, keyed by metric name.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and the correctness references, then runs one
  /// untimed warm-up iteration. Throws on a failed warm-up check.
  virtual void setup() = 0;

  /// One closed-loop iteration. `traced` additionally turns on the
  /// library's own opt-in stage profiler where the workload has one.
  virtual Iteration iterate(Spans& spans, bool traced) = 0;

  /// Traced run only: measures every layer this workload exercises and
  /// fills `layers` (metrics of layers it does not exercise stay absent).
  /// `untraced` and `traced` hold the traced run's iterations of each
  /// kind (never empty); untraced ones are the baseline for ratios such as
  /// the thread speedup. Appends failed checks (for example a threads=1
  /// vs threads=T outcome mismatch) to `errors`.
  virtual void probe(Spans& spans, const std::vector<Iteration>& untraced,
                     const std::vector<Iteration>& traced, Layers& layers,
                     std::vector<std::string>& errors) = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& options);

/// Prints the paper_sweep pinned-rate rows (pinned_sweep.inc) from a run
/// with `trials` trials per cell.
void pin_sweep(const Options& options, int trials);

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
