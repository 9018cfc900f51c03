#include "stream/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>

#include "decoder/registry.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/postmortem.hpp"
#include "sim/executor.hpp"
#include "stream/lane.hpp"

namespace qec {

// The seed mixed with the lane index and every structural parameter
// through SplitMix64 avalanches (the experiment_rng recipe).
Xoshiro256ss lane_rng(const StreamConfig& config, int lane, int rounds) {
  std::uint64_t state = config.seed;
  const auto feed = [&state](std::uint64_t value) {
    state ^= value;
    state = splitmix64(state);
  };
  feed(static_cast<std::uint64_t>(lane));
  feed(static_cast<std::uint64_t>(config.distance));
  feed(static_cast<std::uint64_t>(rounds));
  feed(std::bit_cast<std::uint64_t>(config.p));
  return Xoshiro256ss(state);
}

namespace {

/// The lane-parallel region: one parallel_for task per block of up to 256
/// contiguous lanes (at most 16 blocks); body(block, first, last) runs
/// lanes [first, last) in lane order. A lane writes only lane-local state
/// and its block's slots, so the block shape never changes an outcome
/// (DESIGN.md section 7.1).
int lane_blocks(int n) { return std::clamp((n + 255) / 256, 1, 16); }

template <typename Body>
void for_lane_blocks(int n, int threads, const Body& body) {
  const int blocks = lane_blocks(n);
  const int block = (n + blocks - 1) / blocks;
  parallel_for(blocks, threads, [&](int b) {
    body(b, std::min(n, b * block), std::min(n, (b + 1) * block));
  });
}

/// A record that cannot be held, named by its size. Still a bad_alloc, so
/// a caller that handles running out of memory keeps handling it.
class RecordAllocError final : public std::bad_alloc {
 public:
  explicit RecordAllocError(std::string message)
      : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

/// The metrics counters a lane block counts itself. Serves, starves and
/// overflows are not among them: they are read off the merged round.
enum LaneCounter : std::size_t {
  kPushes, kDrainPushes, kPops, kPauses, kResumes, kCacheZeroRounds,
  kCacheZeroPushes, kLaneCounters
};
using LaneCounts = std::array<std::uint64_t, kLaneCounters>;

/// One block's share of one round, merged in block order: a partial
/// RoundSample (overflowed_lanes = the round's new overflows) and its
/// counter deltas. Cache-line aligned: blocks write theirs concurrently.
struct alignas(64) BlockRound {
  RoundSample sample;
  LaneCounts counts{};
};

/// One block's histogram partials for one round (metrics runs only).
/// LogHistogram::merge adds buckets, count and sum and takes the max, so
/// each window equals a serial lane-order feed.
struct alignas(64) RoundHists {
  obs::LogHistogram depth;
  obs::LogHistogram sojourn;
};

/// Instrument ids of the service's metrics registry.
struct StreamMetrics {
  std::array<int, kLaneCounters> lane{};
  int serves = -1, starves = -1, overflows = -1;  ///< read off the round
  int live = -1, paused = -1, overflowed = -1;    ///< gauges
  int depth = -1, sojourn = -1;                   ///< histograms
  std::array<int, obs::kStageCount> prof{};  ///< per-stage nanos counters
};

/// Registers the service's instruments. Registration order is CSV column
/// order; goldens pin it. resolve_stream registers into a scratch registry
/// to check SLO objectives against the same schema.
StreamMetrics register_stream_metrics(obs::MetricsRegistry& metrics,
                                      bool profile) {
  StreamMetrics m;
  m.lane[kPushes] = metrics.add_counter("pushes");
  m.lane[kDrainPushes] = metrics.add_counter("drain_pushes");
  m.lane[kPops] = metrics.add_counter("pops");
  m.serves = metrics.add_counter("serves");
  m.starves = metrics.add_counter("starves");
  m.overflows = metrics.add_counter("overflows");
  m.lane[kPauses] = metrics.add_counter("pauses");
  m.lane[kResumes] = metrics.add_counter("resumes");
  m.live = metrics.add_gauge("live_lanes");
  m.paused = metrics.add_gauge("paused_lanes");
  m.overflowed = metrics.add_gauge("overflowed_lanes");
  m.depth = metrics.add_histogram("depth");
  m.sojourn = metrics.add_histogram("sojourn");
  // The decode-cache columns: only the all-zero fast-path counters move;
  // the others stay registered (at zero) to keep the CSV schema.
  for (const char* name : {"cache_hits", "cache_misses", "cache_installs",
                           "cache_evictions"}) {
    metrics.add_counter(name);
  }
  m.lane[kCacheZeroRounds] = metrics.add_counter("cache_zero_rounds");
  m.lane[kCacheZeroPushes] = metrics.add_counter("cache_zero_pushes");
  metrics.add_counter("cache_bypasses");
  // Wall-clock nanoseconds per stage and window, only when profiling: the
  // one part of the CSV outside the byte-identical contract. trace_export
  // runs after the run, so its column stays 0 (the profile CSV has it).
  if (profile) {
    std::size_t s = 0;
    for (const char* name : {"prof_dispatch_ns", "prof_lane_ns",
                             "prof_reduce_ns", "prof_telemetry_ns",
                             "prof_export_ns"}) {
      m.prof[s++] = metrics.add_counter(name);
    }
  }
  return m;
}

/// Everything the service does for observability (DESIGN.md section 12):
/// builds the tracer, metrics registry, profiler and SLO engine the config
/// asks for into the outcome, arms the flight recorder, and takes every
/// report of the run. Each hook checks its own sink (one branch when off)
/// and runs on the calling thread, except grant(): the lane blocks call it.
class StreamObserver {
 public:
  StreamObserver(StreamOutcome& outcome, const StreamConfig& config,
                 const ResolvedStream& resolved, int lanes, int trace_rounds)
      : engines_(resolved.engines), dump_armed_(!config.obs.dump_dir.empty()) {
    if (resolved.trace) {
      outcome.tracer = std::make_shared<obs::Tracer>(
          lanes, engines_, static_cast<std::size_t>(config.obs.trace_ring));
      tracer_ = outcome.tracer.get();
    }
    if (config.obs.profile) {
      outcome.profiler = std::make_shared<obs::Profiler>();
      profiler_ = outcome.profiler.get();
    }
    if (resolved.metrics) {
      outcome.metrics =
          std::make_shared<obs::MetricsRegistry>(resolved.metrics_window);
      metrics_ = outcome.metrics.get();
      m_ = register_stream_metrics(*metrics_, config.obs.profile);
    }
    // The SLO engine attaches last: its counters are the trailing columns
    // (resolve_stream already checked its objective metrics).
    if (resolved.slo) {
      outcome.slo = std::make_shared<obs::SloEngine>(*resolved.slo);
      outcome.slo->attach(*metrics_, tracer_ ? &tracer_->control() : nullptr);
    }
    // Armed before the first round, so a mid-run SIGUSR1 or fatal signal
    // can snapshot the live objects; the shared_ptrs outlive the run.
    if (dump_armed_) {
      obs::PostmortemSources sources;
      sources.tracer = outcome.tracer;
      sources.metrics = outcome.metrics;
      sources.profiler = outcome.profiler;
      sources.slo = outcome.slo;
      sources.config_json = config_json(config, resolved, trace_rounds);
      sources.dir = config.obs.dump_dir;
      obs::FlightRecorder::instance().arm(std::move(sources));
    }
  }

  /// Lane `i`'s event track; null when tracing is off.
  obs::Track* lane_track(int i) const {
    return tracer_ ? &tracer_->lane(i) : nullptr;
  }
  bool metrics() const { return metrics_ != nullptr; }

  /// A profiler scope: timing is observed, never consulted.
  [[nodiscard]] obs::ScopedStage stage(obs::Stage s) const {
    return {profiler_, s};
  }

  /// Writes a postmortem bundle if a SIGUSR1 asked for one.
  void poll() {
    if (dump_armed_ && obs::FlightRecorder::take_dump_request()) {
      if (tracer_) flush_grants();
      obs::FlightRecorder::instance().dump("sigusr1");
    }
  }

  /// Opens grant slots for the `count` rounds from `start`. The buffer
  /// flushes once it holds a static window's rounds.
  void open_dispatch(std::int64_t start, int count) {
    if (!tracer_) return;
    const auto k = static_cast<std::size_t>(engines_);
    if (served_.size() >= static_cast<std::size_t>(kStaticWindow) * k) {
      flush_grants();
    }
    if (served_.empty()) served_from_ = start;
    served_.resize(served_.size() + static_cast<std::size_t>(count) * k, -1);
  }

  /// Engine `e` served `lane` in `round`. Called in the lane blocks: one
  /// grant per engine per round, so no two lanes share a slot.
  void grant(std::int64_t round, int e, int lane) {
    if (!tracer_) return;
    served_[static_cast<std::size_t>(round - served_from_) * engines_ +
            static_cast<std::size_t>(e)] = lane;
  }

  /// Adds one block's counter deltas (and, given, its histogram partials)
  /// into the registry, and clears them for reuse.
  void merge(LaneCounts& counts, RoundHists* hists) {
    if (metrics_) {
      for (std::size_t c = 0; c < kLaneCounters; ++c) {
        metrics_->count(m_.lane[c], counts[c]);
      }
      if (hists) {
        metrics_->merge(m_.depth, hists->depth);
        metrics_->merge(m_.sojourn, hists->sojourn);
        hists->depth.reset();
        hists->sojourn.reset();
      }
    }
    counts.fill(0);
  }

  /// Closes one merged timeline round: its kDispatch event, the counters
  /// read off the round, the gauges, and the metrics tick.
  void close_round(const RoundSample& sample) {
    if (tracer_) {
      // Served lanes and serving engines pair one to one.
      tracer_->control().emit_at(
          sample.round, obs::EventKind::kDispatch,
          static_cast<std::uint64_t>(sample.served_lanes),
          sample.drain ? 1 : 0);
    }
    if (!metrics_) return;
    const auto prof = stage(obs::Stage::kTelemetryClose);
    const auto count = [this](int id, int value) {
      metrics_->count(id, static_cast<std::uint64_t>(value));
    };
    count(m_.serves, sample.served_lanes);
    count(m_.starves, sample.starved_lanes);
    count(m_.overflows, sample.overflowed_lanes - overflowed_);
    overflowed_ = sample.overflowed_lanes;
    metrics_->set_gauge(m_.live, sample.live_lanes);
    metrics_->set_gauge(m_.paused, sample.paused_lanes);
    metrics_->set_gauge(m_.overflowed, sample.overflowed_lanes);
    feed_profile();
    metrics_->tick(sample.round);
  }

  /// The run epilogue: the last grants, and the trailing partial metrics
  /// window (fed the last profile deltas first).
  void finish() {
    if (tracer_) flush_grants();
    if (!metrics_) return;
    const auto prof = stage(obs::Stage::kTelemetryClose);
    feed_profile();
    metrics_->finish();
  }

 private:
  /// Emits the buffered kGrant events (payload = the lane served) engine
  /// by engine: in round order, one sweep per engine track.
  void flush_grants() {
    const auto prof = stage(obs::Stage::kReduction);
    const auto k = static_cast<std::size_t>(engines_);
    const std::size_t rows = served_.size() / k;
    for (std::size_t e = 0; e < k; ++e) {
      obs::Track& track = tracer_->engine(static_cast<int>(e));
      for (std::size_t row = 0; row < rows; ++row) {
        const int lane = served_[row * k + e];
        if (lane < 0) continue;
        track.emit_at(served_from_ + static_cast<std::int64_t>(row),
                      obs::EventKind::kGrant, static_cast<std::uint64_t>(lane));
      }
    }
    served_.clear();
  }

  /// Feeds the nanoseconds accrued since the last feed into the prof_*
  /// counters. A scope still open (the reduction, this close) counts in the
  /// window open when it ends.
  void feed_profile() {
    if (!profiler_) return;
    for (int s = 0; s < obs::kStageCount; ++s) {
      metrics_->count(m_.prof[static_cast<std::size_t>(s)],
                      profiler_->take_window_nanos(static_cast<obs::Stage>(s)));
    }
  }

  /// Configuration echo for the postmortem bundle: enough to rerun the
  /// exact scenario (the trace seed/shape plus every service knob).
  static std::string config_json(const StreamConfig& config,
                                 const ResolvedStream& resolved,
                                 int trace_rounds) {
    const auto flag = [](bool on) { return on ? "true" : "false"; };
    const auto json_string = [](const std::string& text) {
      std::string out = "\"";
      out += obs::json_escape(text);
      out += '"';
      return out;
    };
    const auto json_double = [](double value) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      return std::string(buf);
    };
    std::string out = "{";
    out += "\"lanes\": " + std::to_string(config.lanes);
    out += ", \"distance\": " + std::to_string(config.distance);
    out += ", \"p\": " + json_double(config.p);
    out += ", \"rounds\": " + std::to_string(config.rounds);
    out += ", \"trace_rounds\": " + std::to_string(trace_rounds);
    out += ", \"seed\": " + std::to_string(config.seed);
    out += ", \"engine\": " + json_string(config.engine);
    out += ", \"cycles_per_round\": " + json_double(config.cycles_per_round);
    out += ", \"max_drain_rounds\": " + std::to_string(config.max_drain_rounds);
    out += ", \"engines\": " + std::to_string(resolved.engines);
    out += ", \"policy\": " + json_string(config.policy);
    out += ", \"admission\": " + json_string(config.admission);
    out += ", \"budget_w\": " + json_double(config.budget_w);
    out += ", \"threads\": " + std::to_string(config.threads);
    out += ", \"obs\": {\"trace\": ";
    out += flag(resolved.trace);
    out += ", \"trace_ring\": " + std::to_string(config.obs.trace_ring);
    out += ", \"metrics\": ";
    out += flag(resolved.metrics);
    out += ", \"metrics_window\": " + std::to_string(config.obs.metrics_window);
    out += ", \"profile\": ";
    out += flag(config.obs.profile);
    out += ", \"slo\": " + json_string(config.obs.slo);
    out += ", \"dump_dir\": " + json_string(config.obs.dump_dir);
    out += "}}";
    return out;
  }

  const int engines_;
  const bool dump_armed_;
  obs::Tracer* tracer_ = nullptr;            ///< null = tracing off
  obs::MetricsRegistry* metrics_ = nullptr;  ///< null = metrics off
  obs::Profiler* profiler_ = nullptr;        ///< null = profiling off
  StreamMetrics m_;       ///< instrument ids (valid only with metrics_)
  int overflowed_ = 0;    ///< cumulative overflows at the last close
  /// [round][engine]: the lane each engine served, or -1, for the rounds
  /// since the last flush_grants(); row 0 is round served_from_.
  std::vector<int> served_;
  std::int64_t served_from_ = 0;
};

/// Runs the shared engine pool one dispatch at a time (DESIGN.md 8.3). A
/// static pool dispatches kStaticWindow rounds, each lane block computing
/// its lanes' grants in place (engine_for); any other pool dispatches one
/// round, assigned on the calling thread from the pre-round state. Lanes
/// write only lane-local state and their block's tallies, merged in block
/// order on the calling thread.
class PoolScheduler {
 public:
  PoolScheduler(std::vector<Lane>& lanes, const ResolvedStream& resolved,
                const StreamConfig& config, StreamTelemetry& telemetry,
                StreamObserver& observer)
      : lanes_(lanes),
        policy_(*resolved.policy),
        config_(config),
        admission_(resolved.admission),
        telemetry_(telemetry),
        observer_(observer),
        engines_(resolved.engines),
        // Dynamic policies and pause/codel admission read the state the
        // previous round left: one round per dispatch.
        pre_round_(policy_.dynamic() || admission_.pause()),
        window_(pre_round_ ? 1 : kStaticWindow) {
    const auto n = lanes_.size();
    depth_.resize(n);
    finished_.resize(n);
    paused_.resize(n);
    if (pre_round_) {
      assignment_.assign(static_cast<std::size_t>(engines_), -1);
      grant_.resize(n);
    }
    const auto blocks =
        static_cast<std::size_t>(lane_blocks(static_cast<int>(n)));
    tallies_.resize(blocks * static_cast<std::size_t>(window_));
    if (observer_.metrics()) hists_.resize(tallies_.size());
    unfinished_.resize(blocks);
    engine_tallies_.resize(blocks * static_cast<std::size_t>(engines_));
    admitted_.resize(blocks);
  }

  /// Rounds per dispatch: kStaticWindow for a static pool, 1 otherwise.
  int window() const { return window_; }

  /// Runs `count` <= window() rounds from global round `start`. A lane's
  /// admission step for the next round runs in its block at the end of
  /// this dispatch. Returns whether any lane is still unfinished.
  bool dispatch(std::int64_t start, int count, const SyndromeTrace& trace) {
    const int n = static_cast<int>(lanes_.size());
    observer_.open_dispatch(start, count);
    {
      // A static window has no serial step; the stage still opens once
      // per dispatch, so its call count is the dispatch count.
      const auto prof = observer_.stage(obs::Stage::kDispatchAssign);
      if (pre_round_) assign_round(start);
    }

    // Lane-parallel execution. Every write lands in lane-local state, the
    // lane's own slots, or its block's round and engine tallies.
    const std::int64_t next = start + count;
    const bool prepare_next =
        pre_round_ && next < trace.rounds() + config_.max_drain_rounds;
    for_lane_blocks(n, config_.threads, [&](int b, int first, int last) {
      const auto prof = observer_.stage(obs::Stage::kLaneExecute);
      const auto at = static_cast<std::size_t>(b) * window_;
      BlockRound* tally = &tallies_[at];
      RoundHists* hists = hists_.empty() ? nullptr : &hists_[at];
      for (int r = 0; r < count; ++r) tally[r].sample = {.drain = true};
      int unfinished = 0;
      LaneCounts admitted{};
      for (int i = first; i < last; ++i) {
        // A lane finished before this dispatch keeps its pre-round slots.
        const bool ran = !finished_[static_cast<std::size_t>(i)];
        if (run_lane(i, b, start, count, trace, tally, hists)) ++unfinished;
        if (prepare_next && ran) pre_round(i, next, admitted);
      }
      unfinished_[static_cast<std::size_t>(b)] = unfinished;
      admitted_[static_cast<std::size_t>(b)] = admitted;
    });

    // Reductions in fixed (round, block) order on this thread.
    const auto prof_reduce = observer_.stage(obs::Stage::kReduction);
    const int blocks = lane_blocks(n);
    const int unfinished =
        std::accumulate(unfinished_.begin(), unfinished_.end(), 0);
    for (int r = 0; r < count; ++r) {
      RoundSample sample;
      sample.round = start + r;
      sample.drain = true;
      for (int b = 0; b < blocks; ++b) {
        const auto at = static_cast<std::size_t>(b) * window_ +
                        static_cast<std::size_t>(r);
        const RoundSample& part = tallies_[at].sample;
        sample.drain = sample.drain && part.drain;
        sample.live_lanes += part.live_lanes;
        sample.served_lanes += part.served_lanes;
        sample.starved_lanes += part.starved_lanes;
        sample.paused_lanes += part.paused_lanes;
        sample.depth_sum += part.depth_sum;
        sample.depth_max = std::max(sample.depth_max, part.depth_max);
        sample.cycles += part.cycles;
        overflowed_so_far_ += part.overflowed_lanes;
        observer_.merge(tallies_[at].counts,
                        hists_.empty() ? nullptr : &hists_[at]);
      }
      sample.overflowed_lanes = overflowed_so_far_;
      // A round no lane took part in (a window outlived the fleet) counts
      // nowhere: the timeline and engine stats cover exactly the rounds
      // with live or paused lanes, whatever the window.
      if (sample.live_lanes + sample.paused_lanes == 0) continue;
      telemetry_.timeline.push_back(sample);
      observer_.close_round(sample);
    }
    // The next round's pauses and resumes count after this round's tick.
    if (prepare_next) {
      for (auto& counts : admitted_) observer_.merge(counts, nullptr);
    }
    return unfinished > 0;
  }

  /// Sums the blocks' engine tallies into the engine stats, in block
  /// order. Every timeline round is accounted for every engine: busy when
  /// its grant was consumed, idle otherwise.
  void finish() {
    const auto accounted =
        static_cast<std::int64_t>(telemetry_.timeline.size());
    const auto k = static_cast<std::size_t>(engines_);
    telemetry_.engine_stats.resize(k);
    for (std::size_t e = 0; e < k; ++e) {
      EngineTelemetry& stats = telemetry_.engine_stats[e];
      stats.engine = static_cast<int>(e);
      for (std::size_t at = e; at < engine_tallies_.size(); at += k) {
        stats.busy_rounds += engine_tallies_[at].busy_rounds;
        stats.cycles += engine_tallies_[at].cycles;
      }
      stats.idle_rounds = accounted - stats.busy_rounds;
    }
  }

 private:
  /// The one-round path's serial step: round 0's pre-round pass (the
  /// blocks write every later round's at the end of the dispatch before
  /// it), then the policy's assignment and the admission drain grants into
  /// grant_, on this thread.
  void assign_round(std::int64_t round) {
    const int n = static_cast<int>(lanes_.size());
    if (round == 0) {
      for (int i = 0; i < n; ++i) pre_round(i, 0, admitted_[0]);
      observer_.merge(admitted_[0], nullptr);
    }
    ScheduleView view;
    view.round = round;
    view.lanes = n;
    view.engines = engines_;
    view.depth = depth_.data();
    view.finished = finished_.data();
    view.paused = paused_.data();
    view.grant_cycles = config_.cycles_per_round;
    // Reset so a policy that leaves an engine's entry untouched idles it
    // instead of inheriting the previous round's grant.
    std::fill(assignment_.begin(), assignment_.end(), -1);
    std::fill(grant_.begin(), grant_.end(), -1);
    policy_.assign(view, assignment_);
    for (int e = 0; e < engines_; ++e) {
      const int lane = assignment_[static_cast<std::size_t>(e)];
      if (lane < 0) continue;
      if (lane >= n) {
        throw std::logic_error("stream: policy assigned engine " +
                               std::to_string(e) + " to nonexistent lane " +
                               std::to_string(lane));
      }
      int& slot = grant_[static_cast<std::size_t>(lane)];
      if (slot >= 0) {
        throw std::logic_error("stream: policy assigned two engines to lane " +
                               std::to_string(lane) + " in one round");
      }
      slot = e;
    }
    if (admission_.pause()) grant_paused();
  }

  /// Lane `i`'s admission step for global round `round` and its slots for
  /// the policy view. Touches only the lane, its slots and its block's
  /// `admitted` counts, so it runs in the block.
  void pre_round(int i, std::int64_t round, LaneCounts& admitted) {
    const auto idx = static_cast<std::size_t>(i);
    const LaneAdmit step = lanes_[idx].admit(round);
    admitted[kPauses] += step.pause;
    admitted[kResumes] += step.resume;
    depth_[idx] = step.depth;
    finished_[idx] = step.finished;
    paused_[idx] = step.paused;
  }

  /// Admission drain grants for the dispatched round: engines left idle or
  /// pointed at finished lanes serve the paused lanes' backlogs, deepest
  /// first (lane-index ties) — deterministic, independent of the policy in
  /// use, and the reason a paused backlog always eventually drains.
  void grant_paused() {
    const auto idle = [this](int lane) {
      return lane < 0 || finished_[static_cast<std::size_t>(lane)];
    };
    const auto idle_engines = static_cast<std::size_t>(
        std::count_if(assignment_.begin(), assignment_.end(), idle));
    if (idle_engines == 0) return;
    drainable_.clear();
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (paused_[idx] && grant_[idx] < 0) {
        drainable_.push_back(i);
      }
    }
    // Only the deepest idle_engines lanes are granted: order just those.
    rank_deepest_first(drainable_, std::min(idle_engines, drainable_.size()),
                       depth_.data());
    std::size_t next = 0;
    for (int e = 0; e < engines_ && next < drainable_.size(); ++e) {
      int& lane = assignment_[static_cast<std::size_t>(e)];
      if (!idle(lane)) continue;
      lane = drainable_[next++];
      grant_[static_cast<std::size_t>(lane)] = e;
    }
  }

  /// Lane `i`'s share of a dispatch: rounds start .. start + count - 1,
  /// lane-major. Runs in the lane-parallel region; a static pool's grants
  /// are computed here, per round. Each round's LaneRound is folded into
  /// block `b`'s tallies here and nowhere else. Returns whether the lane
  /// is still unfinished afterwards.
  bool run_lane(int i, int b, std::int64_t start, int count,
                const SyndromeTrace& trace, BlockRound* tally,
                RoundHists* hists) {
    const int n = static_cast<int>(lanes_.size());
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    for (int r = 0; r < count && !lane.finished(); ++r) {
      const std::int64_t round = start + r;
      const int e = pre_round_ ? grant_[static_cast<std::size_t>(i)]
                               : policy_.engine_for(round, i, n, engines_);
      RoundHists* hist = hists ? &hists[r] : nullptr;
      const LaneRound did =
          lane.run(round, e >= 0, trace, hist ? &hist->sojourn : nullptr);
      RoundSample& sample = tally[r].sample;
      sample.live_lanes += !did.paused;
      sample.paused_lanes += did.paused;
      // A round is "drain" when no live lane tried to push a trace layer:
      // a stream round in which every live lane overflows stays "stream".
      sample.drain = sample.drain && !did.real;
      sample.served_lanes += did.served;
      sample.starved_lanes += did.starved;
      sample.overflowed_lanes += did.overflowed;  // the round's new ones
      sample.depth_sum += static_cast<std::uint64_t>(did.depth);
      sample.depth_max = std::max(sample.depth_max, did.depth);
      sample.cycles += did.cycles;
      LaneCounts& counts = tally[r].counts;
      counts[kPushes] += did.pushed && did.real;
      counts[kDrainPushes] += did.pushed && !did.real;
      counts[kPops] += static_cast<std::uint64_t>(did.pops);
      counts[kCacheZeroRounds] += did.zero_rounds;
      counts[kCacheZeroPushes] += did.zero_pushes;
      if (hist) hist->depth.observe(static_cast<std::uint64_t>(did.depth));
      if (did.served) {
        EngineTally& engine =
            engine_tallies_[static_cast<std::size_t>(b * engines_ + e)];
        ++engine.busy_rounds;
        engine.cycles += did.cycles;
        observer_.grant(round, e, i);
      }
    }
    return !lane.finished();
  }

  std::vector<Lane>& lanes_;
  SchedulerPolicy& policy_;
  const StreamConfig& config_;
  const AdmissionConfig admission_;
  StreamTelemetry& telemetry_;
  StreamObserver& observer_;
  const int engines_;
  const bool pre_round_;  ///< rounds read pre-round state (window_ == 1)
  const int window_;
  int overflowed_so_far_ = 0;

  std::vector<int> depth_;             // pre-round, for the policy view
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint8_t> paused_;   // frozen by admission this round
  std::vector<int> drainable_;         // admission: ungranted paused lanes
  // One-round path only (pre_round_): the round's engine -> lane
  // assignment and its inverse, lane -> engine or -1.
  std::vector<int> assignment_;
  std::vector<int> grant_;
  std::vector<BlockRound> tallies_;    // [block][round of the dispatch]
  std::vector<RoundHists> hists_;      // the same shape; metrics runs only
  std::vector<LaneCounts> admitted_;   // [block]: next round's pause counts
  std::vector<int> unfinished_;        // [block]: lanes left after dispatch
  /// Grants one engine consumed, summed over the run by one lane block.
  struct EngineTally {
    std::int64_t busy_rounds = 0;
    std::uint64_t cycles = 0;
  };
  /// [block][engine], summed by finish(): a block writes only its row.
  std::vector<EngineTally> engine_tallies_;
};

}  // namespace

void validate_record(const StreamConfig& config) {
  if (config.lanes < 1) throw std::invalid_argument("stream: lanes must be >= 1");
  if (!(config.p >= 0.0 && config.p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument("stream: p must be in [0, 1]");
  }
  if (config.rounds < 0) {
    throw std::invalid_argument("stream: rounds must be >= 0 (0 = distance)");
  }
  // A trace stores rounds + 1 layers per lane (the final perfect round).
  if (config.rounds > std::numeric_limits<int>::max() - 1) {
    throw std::invalid_argument(
        "stream: rounds must be <= " +
        std::to_string(std::numeric_limits<int>::max() - 1) +
        " (a trace stores rounds + 1 rounds per lane)");
  }
}

SyndromeTrace record_trace(const StreamConfig& config) {
  validate_record(config);
  const int noisy_rounds = config.rounds > 0 ? config.rounds : config.distance;
  const PlanarLattice lattice(config.distance);

  TraceHeader header;
  header.distance = static_cast<std::uint32_t>(config.distance);
  header.lanes = static_cast<std::uint32_t>(config.lanes);
  // Stored rounds include the sampler's final perfect round.
  header.rounds = static_cast<std::uint32_t>(noisy_rounds + 1);
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  header.seed = config.seed;
  header.p_data = config.p;
  header.p_meas = config.p;

  // A trace too large to hold fails naming its size, not as a bare
  // bad_alloc: the layer slots alone take rounds x lanes footprints.
  const std::size_t slots = std::size_t{header.rounds} * header.lanes;
  const std::size_t per_slot = PackedBits::footprint(header.checks);
  const auto too_large = [&](const std::string& why) {
    return RecordAllocError("stream: cannot record " +
                            std::to_string(config.lanes) + " lanes x " +
                            std::to_string(noisy_rounds) + " rounds: " + why);
  };
  constexpr std::size_t kMaxBytes = std::numeric_limits<std::size_t>::max();
  if (slots > kMaxBytes / per_slot) {
    throw too_large("the trace needs more than " + std::to_string(kMaxBytes) +
                    " bytes");
  }
  try {
    // Each lane block constructs its own lanes' slots, one round at a
    // time: the slab's pages are first touched inside the parallel loop,
    // every write is one contiguous run, and lanes that share a cache line
    // share a block (DESIGN.md section 7.2). Per-lane RNG streams make the
    // bytes independent of the block shape and thread count.
    SyndromeTrace::Recorder recorder(header);
    const NoiseParams noise{config.p, config.p, noisy_rounds};
    for_lane_blocks(config.lanes, config.threads, [&](int, int first, int last) {
      const auto n = static_cast<std::size_t>(last - first);
      std::vector<Xoshiro256ss> rngs;
      std::vector<PhenomenologicalSampler> samplers;
      rngs.reserve(n);  // the samplers hold references into rngs
      samplers.reserve(n);
      for (int lane = first; lane < last; ++lane) {
        rngs.push_back(lane_rng(config, lane, noisy_rounds));
        samplers.emplace_back(lattice, noise, rngs.back());
      }
      recorder.record_lanes(first, samplers);
    });
    return std::move(recorder).finish();
  } catch (const std::bad_alloc&) {
    throw too_large("out of memory (the trace needs at least " +
                    std::to_string(slots * per_slot) + " bytes)");
  }
}

ResolvedStream resolve_stream(const StreamConfig& config, int lanes,
                              int distance) {
  if (lanes < 1) throw std::invalid_argument("stream: trace has no lanes");
  if (!std::isfinite(config.cycles_per_round)) {
    throw std::invalid_argument("stream: cycles_per_round must be finite");
  }
  if (!std::isfinite(config.budget_w)) {
    throw std::invalid_argument("stream: budget_w must be finite");
  }
  // Each bounds a loop or sizes a buffer: a negative drain bound would cut
  // trace rounds short, and an empty window or ring means nothing.
  const auto at_least = [](const char* field, int value, int floor) {
    if (value < floor) {
      throw std::invalid_argument("stream: " + std::string(field) +
                                  " must be >= " + std::to_string(floor) +
                                  ", got " + std::to_string(value));
    }
  };
  at_least("max_drain_rounds", config.max_drain_rounds, 0);
  at_least("obs.metrics_window", config.obs.metrics_window, 1);
  at_least("obs.trace_ring", config.obs.trace_ring, 1);
  ResolvedStream resolved;
  // A postmortem bundle needs the event trace and the metrics heartbeat;
  // profiling and SLOs stay opt-in.
  const bool dump = !config.obs.dump_dir.empty();
  resolved.trace = config.obs.trace || dump;
  resolved.metrics = config.obs.metrics || dump;
  resolved.metrics_window = config.obs.metrics_window;
  // Resolve the engine, policy, and admission specs before any lane (or
  // thread) exists so a typo fails loudly up front.
  resolved.engine = online_engine_config(config.engine);
  resolved.policy = make_scheduler_policy(config.policy);
  resolved.admission = resolve_admission(parse_admission_spec(config.admission),
                                         resolved.engine.reg_depth);
  // An SLO implies a metrics registry (verdicts read windowed metrics);
  // its window= option overrides the metrics window.
  if (!config.obs.slo.empty()) {
    resolved.slo = obs::parse_slo_spec(config.obs.slo);
    resolved.metrics = true;
    if (resolved.slo->window > 0) resolved.metrics_window = resolved.slo->window;
    // Objectives name metrics: check them against the run's schema now,
    // not after the first cell of a sweep has run.
    obs::MetricsRegistry schema(resolved.metrics_window);
    register_stream_metrics(schema, config.obs.profile);
    obs::SloEngine(*resolved.slo).attach(schema, nullptr);
  }
  int engines = config.engines <= 0 ? lanes : config.engines;

  // A positive budget_w caps K at the largest pool whose modelled ERSFQ
  // dissipation fits the 4-K stage (Table V); the clock sets the watts.
  resolved.freq_hz =
      config.cycles_per_round > 0 ? config.cycles_per_round * 1e6 : 0.0;
  if (config.budget_w > 0) {
    if (resolved.freq_hz <= 0) {
      throw std::invalid_argument(
          "stream: budget_w needs a positive cycles_per_round — an "
          "unconstrained clock has no defined power");
    }
    const int fit =
        PoolPowerModel::max_engines(config.budget_w, distance, resolved.freq_hz);
    if (fit < 1) {
      throw std::invalid_argument(
          "stream: power budget cannot supply even one engine at this "
          "distance and clock");
    }
    engines = std::min(engines, fit);
  }
  if (engines < 1 || engines > lanes) {
    throw std::invalid_argument("stream: engines must be in [1, lanes], got " +
                                std::to_string(engines));
  }
  resolved.policy->validate(lanes, engines);
  resolved.engines = engines;
  if (resolved.freq_hz > 0) {
    resolved.watts = PoolPowerModel{engines, distance, resolved.freq_hz}.watts();
  }
  return resolved;
}

StreamOutcome run_stream(const SyndromeTrace& trace,
                         const StreamConfig& config) {
  const int n = trace.lanes();
  const int distance = static_cast<int>(trace.header().distance);
  const ResolvedStream resolved = resolve_stream(config, n, distance);

  StreamOutcome outcome;
  StreamObserver observer(outcome, config, resolved, n, trace.rounds());

  OnlineConfig online;
  online.engine = resolved.engine;
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;
  const PlanarLattice lattice(distance);
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lanes.emplace_back(lattice, online, i, resolved.admission, trace.rounds(),
                       observer.lane_track(i));
  }

  outcome.telemetry.distance = distance;
  outcome.telemetry.p = trace.header().p_data;
  outcome.telemetry.cycles_per_round = config.cycles_per_round;
  outcome.telemetry.seed = trace.header().seed;
  outcome.telemetry.engine = config.engine;
  outcome.telemetry.policy = config.policy;
  outcome.telemetry.admission = config.admission;
  outcome.telemetry.engines = resolved.engines;
  outcome.telemetry.budget_w = config.budget_w;
  outcome.telemetry.watts = resolved.watts;
  PoolScheduler scheduler(lanes, resolved, config, outcome.telemetry,
                          observer);

  // Round t reaches every live lane before any lane sees round t+1, as
  // syndromes arrive in hardware; clean layers follow each lane's trace
  // for at most max_drain_rounds, and no window crosses that boundary.
  const std::int64_t trace_rounds = trace.rounds();
  const std::int64_t max_rounds = trace_rounds + config.max_drain_rounds;
  // After the first dispatch, each one reports whether a lane is left.
  bool unfinished = std::any_of(
      lanes.begin(), lanes.end(), [](const Lane& l) { return !l.finished(); });
  for (std::int64_t t = 0; t < max_rounds;) {
    observer.poll();
    if (!unfinished) break;
    const std::int64_t end = t < trace_rounds ? trace_rounds : max_rounds;
    const int count =
        static_cast<int>(std::min<std::int64_t>(scheduler.window(), end - t));
    unfinished = scheduler.dispatch(t, count, trace);
    t += count;
  }

  // Each lane's run-end step, in the parallel region.
  for_lane_blocks(n, config.threads, [&](int, int first, int last) {
    const auto prof = observer.stage(obs::Stage::kLaneExecute);
    for (int i = first; i < last; ++i) {
      lanes[static_cast<std::size_t>(i)].finish(trace, lattice);
    }
  });

  outcome.lanes = n;
  outcome.telemetry.lanes.reserve(static_cast<std::size_t>(n));
  for (auto& lane : lanes) {
    outcome.telemetry.lanes.push_back(std::move(lane.telemetry));
  }
  outcome.overflow_lanes = outcome.telemetry.overflow_lanes();
  outcome.drained_lanes = outcome.telemetry.drained_lanes();
  outcome.failed_lanes = outcome.telemetry.failed_lanes();
  outcome.logical_failures = static_cast<int>(
      std::count_if(outcome.telemetry.lanes.begin(),
                    outcome.telemetry.lanes.end(),
                    [](const auto& lane) { return lane.logical_failure; }));
  scheduler.finish();  // engine stats
  observer.finish();   // the last grants and the trailing metrics window
  return outcome;
}

StreamOutcome run_stream(const StreamConfig& config) {
  return run_stream(record_trace(config), config);
}

}  // namespace qec
