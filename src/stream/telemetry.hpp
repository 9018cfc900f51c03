// Telemetry of the streaming decode service: per-lane and aggregate
// queue-depth histograms, per-layer decode-cycle latency percentiles,
// overflow/drain counters, and — for the shared engine pool — per-engine
// utilization, per-lane starvation counters, a fairness index, and the
// per-round aggregate queue-depth timeline, emitted as CSV via common/csv.
//
// Definitions (also in DESIGN.md sections 7 and 8):
//  - queue depth    stored Reg layers observed after each streamed round
//                   (including drain rounds); bin k counts rounds that
//                   ended with k layers resident, k in [0, reg_depth].
//  - layer latency  working cycles the engine attributed to each popped
//                   layer (QecoolEngine::layer_cycles()); p50/p95/p99 are
//                   exact nearest-rank percentiles read off the lane's
//                   count table (common/stats.hpp ValueCounts), which
//                   holds one (value, count) run per distinct sample.
//  - overflow       the lane pushed a layer into a full Reg queue; the
//                   lane stops immediately (terminal, as in Fig 7).
//  - drained        every Reg bit clear and no stored layers by run end.
//  - served round   a live lane was granted a pool engine for the round.
//  - starved round  a live lane entered the round with backlog (stored
//                   layers > 0 before the new layer landed) and was not
//                   granted an engine.
//  - paused round   the lane spent the round frozen by admission control
//                   (admission=pause): no layer was admitted; engine
//                   grants, if any, drained the backlog.
//  - watts          modelled ERSFQ dissipation of the K-engine pool at
//                   the run's clock (stream/admission.hpp); 0 when the
//                   cycle budget is unconstrained (clock unknown).
//
// Each lane's count tables are built in the service's lane-parallel
// finalize from that lane's samples alone; everything else is assembled on
// the calling thread in lane order (the aggregate row merges the tables),
// so every CSV is byte-identical for any --threads value. write_csv keeps
// the pre-pool column set (the dedicated K == N contract); the pool views
// are separate files (write_schedule_csv, write_timeline_csv).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "qecool/decode_cache.hpp"

namespace qec {

struct LaneTelemetry {
  int lane = 0;
  bool overflow = false;
  bool drained = false;
  /// Logical scoring (only meaningful when the lane did not fail
  /// operationally; false otherwise, matching run_online_experiment).
  bool logical_failure = false;

  int rounds_streamed = 0;  ///< trace rounds pushed (stops at overflow)
  int drain_rounds = 0;     ///< extra clean rounds pushed
  int served_rounds = 0;    ///< rounds granted a pool engine
  int starved_rounds = 0;   ///< rounds denied an engine while backlogged
  int paused_rounds = 0;    ///< rounds spent frozen by admission control
  int pauses = 0;           ///< admission pauses (pause() calls)
  int resumes = 0;          ///< admission re-admissions (resume() calls)
  int popped_layers = 0;
  std::uint64_t total_cycles = 0;

  /// depth_hist[k] = rounds that ended with k stored layers.
  std::vector<std::uint64_t> depth_hist;
  /// Working cycles of every popped layer, as exact counts (the latency
  /// percentile samples; total() == popped_layers).
  ValueCounts layer_cycles;
  /// End-to-end round latency of every decoded trace layer: global pop
  /// round - push round + 1, including rounds the lane spent frozen by
  /// admission control (stream/qos.hpp LatencyTracker), as exact counts.
  ValueCounts sojourn_rounds;
  MatchStats matches;
  /// The lane engine's all-zero fast-path totals (zero_rounds,
  /// zero_pushes). Held in the removed cache's struct only because
  /// perfbench/ reads it; its other fields stay 0.
  DecodeCacheStats cache;

  /// A lane fails when it overflowed, failed to drain, or drained to a
  /// logically wrong correction.
  bool failed() const { return overflow || !drained || logical_failure; }

  double mean_depth() const;
  int max_depth() const;
};

/// Accounting of one pool engine across the run. An engine is busy in a
/// round when its assigned lane actually consumed the grant (the lane was
/// live); it is idle when unassigned or its lane had already finished.
struct EngineTelemetry {
  int engine = 0;
  std::int64_t busy_rounds = 0;
  std::int64_t idle_rounds = 0;
  std::uint64_t cycles = 0;  ///< working cycles consumed through this engine

  double utilization() const {
    const std::int64_t total = busy_rounds + idle_rounds;
    return total ? static_cast<double>(busy_rounds) / static_cast<double>(total)
                 : 0.0;
  }
};

/// One entry per scheduled round: the aggregate queue-depth timeline that
/// makes overflow cascades under bursty load visible, not just end-of-run
/// histograms. Rounds where no lane was active are not recorded.
struct RoundSample {
  std::int64_t round = 0;    ///< global round index (stream + drain)
  bool drain = false;        ///< false: trace round, true: drain round
  int live_lanes = 0;        ///< lanes that took part in the round
  /// Lanes granted an engine: live lanes spending their budget plus
  /// paused lanes draining via admission grants — so in pause mode
  /// served can exceed live (bounded by live + paused).
  int served_lanes = 0;
  int starved_lanes = 0;     ///< live lanes denied an engine while backlogged
  int paused_lanes = 0;      ///< lanes frozen by admission control
  int overflowed_lanes = 0;  ///< cumulative lanes lost to overflow so far
  /// Stored layers across live and paused lanes, post-round.
  std::uint64_t depth_sum = 0;
  int depth_max = 0;
  std::uint64_t cycles = 0;  ///< decode cycles consumed this round (all engines)

  /// Mean queue depth over every lane the sample covers (live + paused).
  double depth_mean() const {
    const int covered = live_lanes + paused_lanes;
    return covered ? static_cast<double>(depth_sum) / covered : 0.0;
  }
};

struct StreamTelemetry {
  // Run context, echoed into every CSV row.
  int distance = 0;
  double p = 0.0;
  double cycles_per_round = 0.0;
  std::uint64_t seed = 0;
  std::string engine = "qecool";
  std::string policy = "dedicated";
  std::string admission = "overflow";  ///< admission spec
  int engines = 0;   ///< pool size K
  double watts = 0.0;     ///< modelled pool dissipation (0: clock unknown)
  double budget_w = 0.0;  ///< configured power budget (<= 0: uncapped)

  std::vector<LaneTelemetry> lanes;
  std::vector<EngineTelemetry> engine_stats;  ///< one per pool engine
  std::vector<RoundSample> timeline;          ///< per-round aggregates

  /// All lanes merged, in lane order; counters and count tables sum, so
  /// the aggregate percentiles are those of the pooled samples. The
  /// operational flags fold as any-overflow / all-drained / any-logical.
  LaneTelemetry aggregate() const;

  int overflow_lanes() const;
  int drained_lanes() const;
  int failed_lanes() const;
  /// Lanes the admission controller paused at least once.
  int ever_paused_lanes() const;

  /// Busy fraction of the whole pool: busy engine-rounds over all
  /// accounted engine-rounds (0.0 when nothing was scheduled).
  double pool_utilization() const;

  /// Jain's fairness index over per-lane served rounds:
  /// (sum s_i)^2 / (n * sum s_i^2), 1.0 = perfectly even service, 1/n =
  /// one lane got everything. Defined as 1.0 when nothing was served.
  double fairness_index() const;

  /// One row per lane plus a final "all" aggregate row, where the
  /// overflow/drained/logical_failure columns hold lane *counts*. Returns
  /// false when the file could not be opened or a write failed (every
  /// write_* here does the same). Column set is frozen: a dedicated
  /// K == N run emits the same bytes as the pre-pool service.
  bool write_csv(const std::string& path) const;

  /// Pool scheduling report: one row per engine (kind "engine":
  /// rounds_active = busy, rounds_inactive = idle, utilization), one per
  /// lane (kind "lane": rounds_active = served, rounds_inactive = starved),
  /// and a final "pool" summary row carrying the fairness index.
  bool write_schedule_csv(const std::string& path) const;

  /// The per-round aggregate queue-depth timeline, one row per recorded
  /// round: live/served/starved lane counts, cumulative overflows, depth
  /// sum/mean/max, and cycles consumed.
  bool write_timeline_csv(const std::string& path) const;

  /// End-to-end round-latency report: one row per lane plus a final "all"
  /// aggregate row with exact p50/p95/p99/max/mean sojourn in logical
  /// rounds over the lane's decoded trace layers — paused lanes included
  /// (their samples span the freeze). See docs/streaming.md §3.4.
  bool write_latency_csv(const std::string& path) const;
};

}  // namespace qec
