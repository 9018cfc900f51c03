// Scoped wall-clock self-profiler for the streaming decode service: where
// does the wall-clock actually go — dispatch/assignment, lane execution,
// reduction, telemetry window closes, or trace export?
//
// This is the one obs component that is *explicitly outside* the
// determinism contract (DESIGN.md section 12): it measures wall time, so
// its outputs (the per-stage profile CSV, the optional wall-clock track in
// the Chrome trace, and the prof_* metrics columns) differ run to run and
// thread count to thread count by design. Everything it touches is opt-in
// and off by default, so a profiling-disabled run's exports stay
// byte-identical; the *outcomes* of a profiling-enabled run are unchanged
// too — only timing is observed, never consulted.
//
// Design constraints, in order:
//  - disabled cost: one branch per scope (a null Profiler* test) — the
//    pinned `after_profile` bench record holds instrumented-but-disabled
//    throughput within 2% of `after_cache`;
//  - enabled cost: two steady_clock reads plus two relaxed per-thread
//    stores per scope — no locks, no RMW atomics, no allocation on the
//    hot path (the wall-sample ring is preallocated and overwrite-oldest,
//    the same flight-recorder semantics as the trace rings);
//  - per-thread accumulators: every worker writes only its own slot
//    (registered once per thread, cached thread_local), and the
//    scheduling thread reads the relaxed atomics between parallel
//    regions, so aggregation is data-race free without fences.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qec::obs {

/// The fixed stage taxonomy. Stages may nest (kTelemetryClose runs inside
/// kReduction), so per-stage totals are not disjoint shares of the run —
/// they answer "how much wall time was spent under this label",
/// Perfetto-slice style.
enum class Stage : std::uint8_t {
  kDispatchAssign = 0,  ///< pre-round lane state + policy assignment
  kLaneExecute,         ///< the lane-parallel region (per-lane body)
  kReduction,           ///< fixed-order reductions on the scheduling thread
  kTelemetryClose,      ///< metrics feed, window close, finish
  kTraceExport,         ///< serializing traces/CSVs after the run
};
inline constexpr int kStageCount = 5;

/// Stable lowercase stage name (CSV rows, trace slice labels).
const char* stage_name(Stage stage);

/// One recorded scope: start offset from the profiler's epoch plus
/// duration, both in nanoseconds of std::chrono::steady_clock.
struct WallSample {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  Stage stage = Stage::kDispatchAssign;
};

/// Aggregate of one stage across all threads.
struct StageTotals {
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
  int threads = 0;  ///< threads that entered the stage at least once
};

class Profiler {
 public:
  /// `sample_ring` bounds the per-thread wall-sample flight recorder
  /// (overwrite-oldest once full; accumulators are never dropped).
  explicit Profiler(std::size_t sample_ring = 1 << 13);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Nanoseconds since this profiler's construction (steady clock).
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records one closed scope on the calling thread's slot.
  void record(Stage stage, std::uint64_t start_ns);

  /// Per-stage totals summed over every registered thread. Call from one
  /// thread while no parallel region is in flight.
  std::array<StageTotals, kStageCount> totals() const;

  /// Nanoseconds accrued on `stage` since the previous take — the
  /// windowed-metrics feed (scheduling thread only; the consumed cursor
  /// is not thread-safe).
  std::uint64_t take_window_nanos(Stage stage);

  /// Threads that have recorded at least one scope.
  int threads() const;

  /// Surviving wall samples of thread `tid` (registration order), sorted
  /// by start time — the Chrome-trace wall-clock track source.
  std::vector<WallSample> thread_samples(int tid) const;

  /// Per-stage profile CSV: stage,calls,threads,total_ns,mean_ns.
  /// Returns false when the file cannot be opened or a write fails
  /// (mirroring the telemetry writers). Wall-clock values: not deterministic.
  bool write_csv(const std::string& path) const;

 private:
  struct ThreadSlot {
    explicit ThreadSlot(std::size_t ring_capacity);
    // Single-writer accumulators: the owning thread updates them with
    // relaxed load+store (a plain add in machine code); the scheduling
    // thread reads them with relaxed loads between joins.
    std::array<std::atomic<std::uint64_t>, kStageCount> nanos;
    std::array<std::atomic<std::uint64_t>, kStageCount> calls;
    // Wall-sample ring: owner-thread writes only; read after the run.
    std::vector<WallSample> ring;
    std::size_t ring_capacity = 0;
    std::size_t ring_head = 0;
  };

  ThreadSlot& slot();
  ThreadSlot& register_thread();

  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t sample_ring_;
  const std::uint64_t id_;  ///< process-unique, for the thread_local cache

  mutable std::mutex mutex_;  ///< guards slots_ registration / aggregation
  std::vector<std::unique_ptr<ThreadSlot>> slots_;

  std::array<std::uint64_t, kStageCount> window_consumed_{};
};

/// RAII stage scope. A null profiler costs exactly one branch in the
/// constructor and one in the destructor — the instrumented-but-disabled
/// contract the after_profile bench record pins.
class ScopedStage {
 public:
  ScopedStage(Profiler* profiler, Stage stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_) start_ns_ = profiler_->now_ns();
  }
  ~ScopedStage() {
    if (profiler_) profiler_->record(stage_, start_ns_);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Profiler* const profiler_;
  const Stage stage_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace qec::obs
