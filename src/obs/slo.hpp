// Declarative SLO engine for the streaming decode service: parse an
// objective list like `sojourn_p99<8,depth_p95<=12,window=256`, evaluate
// it against every closed metrics window, and track burn-rate state per
// objective with the classic dual-window scheme (a *fast* window of
// recent metric windows for paging, a *slow* window for sustained burn /
// early warning — the Google-SRE multiwindow multi-burn-rate alert,
// transplanted into logical rounds).
//
// Everything here derives from the MetricsRegistry's windowed numeric
// snapshots, which are fed on the scheduling thread in fixed order — so
// verdicts, counters, trace events, and the compliance summary are pure
// functions of (trace, config minus threads): thread-count invariant and
// CI-diffable, unlike any wall-clock alerting. The wall-clock profiler
// (obs/profile.hpp) is the explicitly non-deterministic counterpart.
//
// Grammar (comma-separated items, spec-parsed like decoders/policies —
// every malformed item is reported, not just the first):
//   objective := <metric><op><int64>     op in { < <= > >= }
//                metric names a value_schema() column, e.g. sojourn_p99
//   option    := window=<rounds>  metrics window override (>= 1)
//              | fast=<windows>   fast burn window, default 4  (>= 1)
//              | slow=<windows>   slow burn window, default 16 (>= fast)
//
// Burn-rate state per objective, re-evaluated at each window close over
// the last `fast` / `slow` windows' violation bits:
//   page    — every fast window violated AND >= 1/2 of slow violated
//   warning — >= 1/2 of fast violated AND >= 1/4 of slow violated
//   ok      — otherwise
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qec::obs {

enum class SloOp : std::uint8_t { kLt = 0, kLe, kGt, kGe };
const char* slo_op_name(SloOp op);  // "<", "<=", ">", ">="

enum class SloState : std::uint8_t { kOk = 0, kWarning = 1, kPage = 2 };
const char* slo_state_name(SloState state);  // "ok", "warning", "page"

struct SloObjective {
  std::string metric;  ///< a MetricsRegistry value_schema() column name
  SloOp op = SloOp::kLt;
  std::int64_t threshold = 0;

  /// The objective as written, e.g. "sojourn_p99<8".
  std::string spec() const;
};

struct SloConfig {
  std::vector<SloObjective> objectives;
  int window = 0;  ///< metrics-window override in rounds; 0 = keep default
  int fast = 4;    ///< fast burn window, in metric windows
  int slow = 16;   ///< slow burn window, in metric windows
};

/// Parses an SLO spec string. Throws std::invalid_argument naming *every*
/// offending item/key, not just the first. Requires >= 1 objective.
SloConfig parse_slo_spec(const std::string& spec);

/// One evaluated (window, objective) pair — a row of the verdict CSV.
struct SloVerdict {
  int window = 0;              ///< metrics window ordinal
  std::int64_t round_last = 0; ///< last logical round of the window
  int objective = 0;           ///< index into config().objectives
  std::int64_t value = 0;      ///< the metric's windowed value
  bool violated = false;
  int fast_bad = 0;            ///< violations in the last `fast` windows
  int slow_bad = 0;            ///< violations in the last `slow` windows
  SloState state = SloState::kOk;
};

/// Whole-run tallies per objective, for the summary/compliance report.
struct SloObjectiveSummary {
  std::string spec;            ///< "sojourn_p99<8"
  std::int64_t windows = 0;
  std::int64_t violations = 0;
  std::int64_t warnings = 0;   ///< windows spent in warning
  std::int64_t pages = 0;      ///< windows spent in page
  SloState state = SloState::kOk;  ///< state after the last window
};

class SloEngine {
 public:
  explicit SloEngine(SloConfig config);

  /// Resolves objective metrics against the registry's value schema
  /// (throws std::invalid_argument naming every unknown metric), registers
  /// the slo_ok/slo_warning/slo_page counters, and installs the window
  /// observer. `control` (may be null) receives a kSloState trace event on
  /// the first window and on every state transition. Call after every
  /// other instrument is registered and before the first tick.
  void attach(MetricsRegistry& metrics, Track* control);

  const SloConfig& config() const { return config_; }
  const std::vector<SloVerdict>& verdicts() const { return verdicts_; }
  const std::vector<SloObjectiveSummary>& summaries() const {
    return summaries_;
  }

  /// Worst *current* state across objectives.
  SloState worst_state() const;
  /// True when no objective ever reached page.
  bool compliant() const;

  /// Verdict time series CSV: one row per (window, objective).
  bool write_csv(const std::string& path) const;

  /// Compliance summary as a self-contained JSON object (the `slo` block
  /// of the postmortem manifest).
  std::string summary_json() const;

 private:
  void on_window(const WindowSnapshot& snapshot);

  struct ObjectiveRuntime {
    int column = -1;                 ///< index into the snapshot values
    std::vector<std::uint8_t> ring;  ///< last `slow` violation bits
    std::size_t head = 0;
    std::size_t filled = 0;
    int last_state = -1;             ///< -1 = no window evaluated yet
  };

  SloConfig config_;
  std::vector<ObjectiveRuntime> runtime_;
  std::vector<SloVerdict> verdicts_;
  std::vector<SloObjectiveSummary> summaries_;
  MetricsRegistry* metrics_ = nullptr;
  Track* control_ = nullptr;
  int counter_ok_ = -1;
  int counter_warning_ = -1;
  int counter_page_ = -1;
  bool ever_paged_ = false;
};

/// Prometheus text-exposition snapshot of a finished run: cumulative
/// counters, final gauges, merged histogram summaries (quantile labels,
/// _sum/_count), plus qec_slo_state per objective when `slo` is non-null.
/// Integer-valued throughout, so the file is byte-identical at any thread
/// count. Returns false when the file cannot be opened or a write fails.
bool write_prom_snapshot(const MetricsRegistry& metrics, const SloEngine* slo,
                         const std::string& path);

}  // namespace qec::obs
