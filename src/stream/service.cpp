#include "stream/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include <cstdio>

#include "decoder/registry.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/postmortem.hpp"
#include "qecool/online_runner.hpp"
#include "sim/executor.hpp"
#include "stream/qos.hpp"
#include "surface_code/planar_lattice.hpp"

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

struct Lane {
  Lane(const PlanarLattice& lattice, const OnlineConfig& online, int id,
       const AdmissionConfig& admission)
      : stepper(lattice, online), qos(online.engine.reg_depth) {
    telemetry.lane = id;
    telemetry.depth_hist.assign(
        static_cast<std::size_t>(online.engine.reg_depth) + 1, 0);
    if (admission.codel()) {
      codel = CodelControl(admission.target, admission.interval);
    }
  }

  /// Done for good: overflowed, or drained with the whole trace consumed.
  /// A paused lane is never finished (its clock is frozen mid-stream), and
  /// a lane with trace layers still to consume is not done just because
  /// its queue drained.
  bool finished(int trace_rounds) const {
    if (stepper.overflowed()) return true;
    return !stepper.paused() && cursor >= trace_rounds && stepper.drained();
  }

  OnlineStepper stepper;
  LaneTelemetry telemetry;

  /// Sojourn clock: timestamps every pushed layer with the global round
  /// and counts a latency sample on every pop spend() reports. Lane-local,
  /// like everything below: only the lane's own block touches it.
  LatencyTracker qos;

  /// CoDel control law state (admission=codel only), driven by the lane's
  /// admission step.
  CodelControl codel;

  /// Next trace layer this lane will consume. Equals the global round for
  /// every live lane unless admission pauses it: a paused lane's cursor
  /// freezes while the global round marches on.
  int cursor = 0;

  /// Observability (src/obs): the lane's event track, null when tracing
  /// is off — every hook below guards on it, so a disabled tracer costs
  /// one branch. Written only by the lane's own block (and, before round
  /// 0, by the scheduling thread), so the ring stays single-writer.
  obs::Track* track = nullptr;
};

/// The lane-parallel region: lanes split into contiguous blocks, one
/// parallel_for task per block; body(block, first, last) runs lanes
/// [first, last) in lane order. One block per 256 lanes (at most 16) keeps
/// the per-task hand-off off the per-lane path; a per-lane parallel_for
/// was measured ~54% more CPU per lane-round on the shared pool (DESIGN.md
/// section 7.1). Every write a lane makes is lane-local or lands in its
/// block's own slots, so the block shape never changes an outcome.
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

/// Per-lane metrics counters, in registration order (the cache pair
/// registers after the gauges and histograms).
enum LaneCounter : std::size_t {
  kPushes, kDrainPushes, kPops, kServes, kStarves, kOverflows, kPauses,
  kResumes, kCacheZeroRounds, kCacheZeroPushes, kLaneCounters
};

/// Instrument ids of the service's metrics registry.
struct StreamMetrics {
  std::array<int, kLaneCounters> lane{};     ///< per-lane counters
  int live = -1;
  int paused = -1;
  int overflowed = -1;
  int depth = -1;
  int sojourn = -1;
  std::array<int, obs::kStageCount> prof{};  ///< per-stage nanos counters
};

/// Registers the service's instruments. Registration order is CSV column
/// order; goldens pin it. resolve_stream registers into a scratch registry
/// to check SLO objectives against the same schema.
StreamMetrics register_stream_metrics(obs::MetricsRegistry& metrics,
                                      bool profile) {
  StreamMetrics m;
  std::size_t c = 0;
  for (const char* name : {"pushes", "drain_pushes", "pops", "serves",
                           "starves", "overflows", "pauses", "resumes"}) {
    m.lane[c++] = metrics.add_counter(name);
  }
  m.live = metrics.add_gauge("live_lanes");
  m.paused = metrics.add_gauge("paused_lanes");
  m.overflowed = metrics.add_gauge("overflowed_lanes");
  m.depth = metrics.add_histogram("depth");
  m.sojourn = metrics.add_histogram("sojourn");
  // Decode-cache counters append after the first instruments so the
  // established column order is untouched. Only the all-zero fast-path
  // counters move; the others stay registered (at zero) to keep the CSV
  // schema.
  for (const char* name : {"cache_hits", "cache_misses", "cache_installs",
                           "cache_evictions"}) {
    metrics.add_counter(name);
  }
  m.lane[kCacheZeroRounds] = metrics.add_counter("cache_zero_rounds");
  m.lane[kCacheZeroPushes] = metrics.add_counter("cache_zero_pushes");
  metrics.add_counter("cache_bypasses");
  // Wall-clock profile feed: registered only when profiling is on, so the
  // default metrics CSV schema is untouched — and these columns are the ONE
  // part of the CSV exempt from the byte-identical contract (they measure
  // real time). Values are nanoseconds accrued per window; trace_export
  // happens after the run, so its column stays 0 here and lives in the
  // profile CSV instead.
  if (profile) {
    m.prof[0] = metrics.add_counter("prof_dispatch_ns");
    m.prof[1] = metrics.add_counter("prof_lane_ns");
    m.prof[2] = metrics.add_counter("prof_reduce_ns");
    m.prof[3] = metrics.add_counter("prof_telemetry_ns");
    m.prof[4] = metrics.add_counter("prof_export_ns");
  }
  return m;
}

/// Orchestrates the shared engine pool over one run, one dispatch at a
/// time. A static policy under overflow admission runs in windows of
/// kStaticWindow rounds: each lane block takes each of its lanes through the
/// whole window, computing the lane's grant in place (engine_for), with
/// no serial step. A dynamic policy or pause/codel admission runs one
/// round per dispatch: the policy assigns engines on the calling thread
/// from the pre-round state, then the blocks execute the round. Either
/// way every write goes to lane-local slots and per-block tallies, merged
/// in block order on the calling thread — so every outcome and CSV is
/// independent of the worker-thread count and of the window.
class PoolScheduler {
 public:
  PoolScheduler(std::vector<Lane>& lanes, const ResolvedStream& resolved,
                const StreamConfig& config, StreamTelemetry& telemetry,
                obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                obs::Profiler* profiler)
      : lanes_(lanes),
        policy_(*resolved.policy),
        config_(config),
        admission_(resolved.admission),
        telemetry_(telemetry),
        tracer_(tracer),
        metrics_(metrics),
        profiler_(profiler),
        engines_(resolved.engines),
        // Dynamic policies and pause/codel admission read fresh pre-round
        // lane state, so each round must see the state the previous one
        // left: one round per dispatch.
        pre_round_(policy_.dynamic() || admission_.pause()),
        window_(pre_round_ ? 1 : kStaticWindow) {
    telemetry_.engine_stats.resize(static_cast<std::size_t>(engines_));
    for (int e = 0; e < engines_; ++e) {
      telemetry_.engine_stats[static_cast<std::size_t>(e)].engine = e;
    }
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
    unfinished_.resize(blocks);
    engine_tallies_.resize(blocks * static_cast<std::size_t>(engines_));
    admitted_.resize(blocks);
    if (metrics_) m_ = register_stream_metrics(*metrics_, profiler_ != nullptr);
  }

  /// Rounds per dispatch: kStaticWindow for a static pool, 1 otherwise.
  int window() const { return window_; }

  /// Runs `count` <= window() rounds starting at global round `start`.
  /// Every lane that is neither finished nor paused pushes trace layer
  /// (lane, cursor) while its cursor is inside the trace and a clean layer
  /// after that; without pausing, every live lane's cursor equals the
  /// global round. Under admission=pause/codel a lane's admission step for
  /// a round runs in its block at the end of the previous dispatch, and
  /// engines the policy leaves idle drain the paused lanes. Outcomes stay
  /// a pure function of (trace, config). Returns whether any lane is still
  /// unfinished afterwards.
  bool dispatch(std::int64_t start, int count, const SyndromeTrace& trace) {
    const int n = static_cast<int>(lanes_.size());
    const int trace_rounds = trace.rounds();
    if (tracer_) {
      const auto k = static_cast<std::size_t>(engines_);
      // The grant buffer flushes once it holds a static window's rounds.
      if (served_.size() >= static_cast<std::size_t>(kStaticWindow) * k) {
        flush_grants();
      }
      if (served_.empty()) served_from_ = start;
      served_.resize(served_.size() + static_cast<std::size_t>(count) * k, -1);
    }

    {
      // Profiler stage scopes (here and below) cost one branch each when
      // profiling is off and never touch any outcome — timing is observed,
      // not consulted. A static window has no serial step; the stage still
      // opens once per dispatch, so its call count is the dispatch count.
      obs::ScopedStage prof(profiler_, obs::Stage::kDispatchAssign);
      if (pre_round_) assign_round(start, trace_rounds);
    }

    // Lane-parallel execution. Every write lands in lane-local state, the
    // lane's own slots, or its block's round, metrics and engine tallies.
    const std::int64_t next = start + count;
    const bool prepare_next =
        pre_round_ && next < trace_rounds + config_.max_drain_rounds;
    for_lane_blocks(n, config_.threads, [&](int b, int first, int last) {
      obs::ScopedStage prof(profiler_, obs::Stage::kLaneExecute);
      BlockRound* tally = &tallies_[static_cast<std::size_t>(b) * window_];
      BlockRound& admitted = admitted_[static_cast<std::size_t>(b)];
      for (int r = 0; r < count; ++r) tally[r].sample = {.drain = true};
      int unfinished = 0;
      for (int i = first; i < last; ++i) {
        // A lane finished before this dispatch keeps its pre-round slots.
        const bool ran = !finished_[static_cast<std::size_t>(i)];
        if (run_lane(i, b, start, count, trace, tally)) ++unfinished;
        if (prepare_next && ran) pre_round(i, next, trace_rounds, admitted);
      }
      unfinished_[static_cast<std::size_t>(b)] = unfinished;
    });

    // Reductions in fixed (round, block) order on this thread.
    obs::ScopedStage prof_reduce(profiler_, obs::Stage::kReduction);
    const int blocks = lane_blocks(n);
    int unfinished = 0;
    for (int b = 0; b < blocks; ++b) {
      unfinished += unfinished_[static_cast<std::size_t>(b)];
    }
    for (int r = 0; r < count; ++r) {
      const std::int64_t round = start + r;
      RoundSample sample;
      sample.round = round;
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
        if (metrics_) merge_partial(tallies_[at]);
      }
      sample.overflowed_lanes = overflowed_so_far_;
      // Rounds in which no lane took part are scheduling artifacts (a
      // window outlives the fleet, or the last lanes finished at the
      // admission step): account nothing, so engine stats — like the
      // timeline — cover exactly the rounds with live or paused lanes and
      // do not depend on the window.
      if (sample.live_lanes + sample.paused_lanes == 0) continue;
      telemetry_.timeline.push_back(sample);
      if (tracer_) {
        // Served lanes and serving engines pair one to one.
        tracer_->control().emit_at(
            round, obs::EventKind::kDispatch,
            static_cast<std::uint64_t>(sample.served_lanes),
            sample.drain ? 1 : 0);
      }
      if (metrics_) {
        obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
        metrics_->set_gauge(m_.live, sample.live_lanes);
        metrics_->set_gauge(m_.paused, sample.paused_lanes);
        metrics_->set_gauge(m_.overflowed, overflowed_so_far_);
        feed_profile();
        metrics_->tick(round);
      }
    }
    // The next round's pauses and resumes count after this round's tick.
    if (metrics_ && prepare_next) {
      for (auto& part : admitted_) merge_partial(part);
    }
    return unfinished > 0;
  }

  /// Emits the buffered rounds' kGrant events (payload = the lane served)
  /// engine by engine: each engine track still gets them in round order,
  /// but its ring is written in one sweep, not one cold line per round.
  void flush_grants() {
    obs::ScopedStage prof(profiler_, obs::Stage::kReduction);
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

  /// The run_stream epilogue: sums the blocks' engine tallies into the
  /// engine stats, in block order, and flushes the trailing partial metrics
  /// window (feeding it the last profile deltas first).
  void finish() {
    if (tracer_) flush_grants();
    // Every timeline round is accounted for every engine: busy when its
    // grant was consumed, idle otherwise.
    const auto accounted =
        static_cast<std::int64_t>(telemetry_.timeline.size());
    const auto k = static_cast<std::size_t>(engines_);
    for (std::size_t e = 0; e < k; ++e) {
      EngineTelemetry& stats = telemetry_.engine_stats[e];
      for (std::size_t at = e; at < engine_tallies_.size(); at += k) {
        stats.busy_rounds += engine_tallies_[at].busy_rounds;
        stats.cycles += engine_tallies_[at].cycles;
      }
      stats.idle_rounds = accounted - stats.busy_rounds;
    }
    if (!metrics_) return;
    obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
    feed_profile();
    metrics_->finish();
  }

 private:
  /// One block's share of one round, merged in block order: a partial
  /// RoundSample (overflowed_lanes = the round's new overflows) and, with
  /// metrics on, counter deltas and histograms. Counters add and
  /// LogHistogram::merge adds buckets, count and sum and takes the max, so
  /// each window equals a serial lane-order feed.
  struct BlockRound {
    RoundSample sample;
    std::array<std::uint64_t, kLaneCounters> counts{};
    obs::LogHistogram depth;
    obs::LogHistogram sojourn;
  };

  /// The one-round path's serial step: round 0's pre-round pass (the
  /// blocks write every later round's at the end of the dispatch before
  /// it), then the policy's assignment and the admission drain grants into
  /// grant_, on this thread.
  void assign_round(std::int64_t round, int trace_rounds) {
    const int n = static_cast<int>(lanes_.size());
    if (round == 0) {
      for (int i = 0; i < n; ++i) pre_round(i, 0, trace_rounds, admitted_[0]);
      if (metrics_) merge_partial(admitted_[0]);
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

  /// Lane `i`'s pre-round state for global round `round`: its admission
  /// step (pause/codel only, unfinished lanes only), then its depth,
  /// finished and paused slots for the policy view. Touches only the lane,
  /// its slots and its block's `admitted` counts, so it runs in the block.
  void pre_round(int i, std::int64_t round, int trace_rounds,
                 BlockRound& admitted) {
    const auto idx = static_cast<std::size_t>(i);
    Lane& lane = lanes_[idx];
    const int depth = lane.stepper.engine().stored_layers();
    if (admission_.pause() && !lane.finished(trace_rounds)) {
      admit(lane, round, depth, admitted);
    }
    // A finished lane is never paused (finished() requires it).
    depth_[idx] = depth;
    finished_[idx] = lane.finished(trace_rounds) ? 1 : 0;
    paused_[idx] = lane.stepper.paused() ? 1 : 0;
  }

  /// The admission step for one unfinished lane (pause/codel only). A
  /// paused lane re-admits once its backlog reaches the low-water mark (a
  /// fully drained lane with no trace left then finishes); an admitted
  /// lane at or above the high-water mark is paused instead of being
  /// allowed to push toward overflow.
  void admit(Lane& lane, std::int64_t round, int depth, BlockRound& admitted) {
    if (lane.stepper.paused()) {
      // Codel re-admits when the standing latency dissolved (head sojourn
      // back under target) or the backlog drained to the low-water mark —
      // whichever comes first; pause mode uses the depth mark alone.
      const bool readmit =
          depth <= admission_.low_water ||
          (admission_.codel() &&
           lane.codel.should_resume(lane.qos.head_age(round), depth));
      if (!readmit) return;
      lane.stepper.resume();
      ++lane.telemetry.resumes;
      if (admission_.codel()) lane.codel.on_resume(round);
      if (lane.track) trace_admission_resume(*lane.track, round, depth);
      ++admitted.counts[kResumes];
      return;
    }
    // The CoDel law observes every admitted round (the call arms and
    // disarms its deadline); the depth high-water mark stays behind it as
    // the overflow backstop, so codel never loses a lane that pause mode
    // would have kept.
    const bool by_codel =
        admission_.codel() &&
        lane.codel.should_pause(round, lane.qos.head_age(round), depth);
    if (by_codel || depth >= admission_.high_water) {
      // checkpoint() freezes the clock; the returned patch snapshot is the
      // host-offload view, which the service itself does not need — tests
      // exercise it directly.
      (void)lane.stepper.checkpoint();
      ++lane.telemetry.pauses;
      if (lane.track) trace_admission_pause(*lane.track, round, by_codel, depth);
      ++admitted.counts[kPauses];
    }
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
  /// lane-major, folded into its block's round and metrics tallies. Runs
  /// in the lane-parallel region; a static pool's grants are computed here,
  /// per round. Returns whether the lane is still unfinished afterwards.
  bool run_lane(int i, int b, std::int64_t start, int count,
                const SyndromeTrace& trace, BlockRound* tally) {
    const int n = static_cast<int>(lanes_.size());
    const int trace_rounds = trace.rounds();
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    const QecoolEngine& engine = lane.stepper.engine();
    const DecodeCacheStats& cache = engine.cache_stats();
    const auto emit_depth = [&](obs::EventKind kind, std::uint16_t arg = 0) {
      if (lane.track) {
        lane.track->emit(
            kind, static_cast<std::uint64_t>(engine.stored_layers()), arg);
      }
    };
    for (int r = 0; r < count && !lane.finished(trace_rounds); ++r) {
      const std::int64_t round = start + r;
      BlockRound& part = tally[r];
      RoundSample& sample = part.sample;
      const std::uint64_t zero_rounds = cache.zero_rounds;
      const std::uint64_t zero_pushes = cache.zero_pushes;
      const int e = pre_round_ ? grant_[static_cast<std::size_t>(i)]
                               : policy_.engine_for(round, i, n, engines_);
      const bool granted = e >= 0;
      if (lane.track) lane.track->set_round(round);
      if (lane.stepper.paused()) {
        ++lane.telemetry.paused_rounds;
        ++sample.paused_lanes;
        if (granted) serve(i, b, e, round, part);
      } else {
        ++sample.live_lanes;
        // Backlog before this round's layer lands: the starvation test.
        const bool backlog = engine.stored_layers() > 0;
        const bool real = lane.cursor < trace_rounds;
        // A round is "drain" when no live lane tried to push a trace
        // layer: a stream round in which every live lane overflows stays
        // "stream".
        if (real) sample.drain = false;
        // trace.layer() hands out PackedBits: this push is a word copy
        // into the engine Reg, never a byte-per-bit repack.
        const bool pushed =
            real ? lane.stepper.push(trace.layer(i, lane.cursor))
                 : lane.stepper.push_clean();
        if (pushed) {
          if (real) {
            ++lane.cursor;
            ++lane.telemetry.rounds_streamed;
          } else {
            ++lane.telemetry.drain_rounds;
          }
          if (metrics_) ++part.counts[real ? kPushes : kDrainPushes];
          emit_depth(obs::EventKind::kPush, real ? 1 : 0);
          lane.qos.on_push(round, real);
          if (granted) {
            serve(i, b, e, round, part);
          } else if (backlog) {
            ++sample.starved_lanes;
            ++lane.telemetry.starved_rounds;
            if (metrics_) ++part.counts[kStarves];
            emit_depth(obs::EventKind::kStarve);
          }
        } else {
          ++sample.overflowed_lanes;  // this round's new overflows
          if (metrics_) ++part.counts[kOverflows];
          emit_depth(obs::EventKind::kOverflow);
        }
      }
      const int depth = engine.stored_layers();
      auto& hist = lane.telemetry.depth_hist;
      if (static_cast<std::size_t>(depth) < hist.size()) {
        ++hist[static_cast<std::size_t>(depth)];
      }
      sample.depth_sum += static_cast<std::uint64_t>(depth);
      sample.depth_max = std::max(sample.depth_max, depth);
      if (metrics_) {
        part.depth.observe(static_cast<std::uint64_t>(depth));
        part.counts[kCacheZeroRounds] += cache.zero_rounds - zero_rounds;
        part.counts[kCacheZeroPushes] += cache.zero_pushes - zero_pushes;
      }
    }
    return !lane.finished(trace_rounds);
  }

  /// Spends lane `i`'s grant of engine `e` in global round `round`. Runs
  /// in the lane-parallel region: writes lane-local state, block `b`'s
  /// tallies and the engine's served slot — one grant per engine per
  /// round, so no two lanes share a slot.
  void serve(int i, int b, int e, std::int64_t round, BlockRound& part) {
    Lane& lane = lanes_[static_cast<std::size_t>(i)];
    const std::uint64_t cycles = lane.stepper.spend(config_.cycles_per_round);
    const int pops = lane.stepper.last_spend_pops();
    lane.qos.on_pops(pops, round, metrics_ ? &part.sojourn : nullptr);
    ++lane.telemetry.served_rounds;
    if (lane.track) lane.track->emit(obs::EventKind::kSpend, cycles);
    if (metrics_) {
      ++part.counts[kServes];
      part.counts[kPops] += static_cast<std::uint64_t>(pops);
    }
    if (tracer_) {
      served_[static_cast<std::size_t>(round - served_from_) * engines_ +
              static_cast<std::size_t>(e)] = i;
    }
    EngineTally& engine =
        engine_tallies_[static_cast<std::size_t>(b * engines_ + e)];
    ++engine.busy_rounds;
    engine.cycles += cycles;
    ++part.sample.served_lanes;
    part.sample.cycles += cycles;
  }

  /// Adds one block partial into the registry and clears it for reuse.
  void merge_partial(BlockRound& part) {
    for (std::size_t c = 0; c < kLaneCounters; ++c) {
      metrics_->count(m_.lane[c], part.counts[c]);
    }
    part.counts.fill(0);
    metrics_->merge(m_.depth, part.depth);
    metrics_->merge(m_.sojourn, part.sojourn);
    part.depth.reset();
    part.sojourn.reset();
  }

  /// Feeds the wall-clock nanoseconds accrued since the previous feed into
  /// the prof_* counters, so each metrics window carries its own share.
  /// Scopes still open when this runs (the enclosing reduction, the
  /// telemetry close itself) are attributed to the window open when they
  /// end — wall-clock values are non-deterministic either way.
  void feed_profile() {
    if (!profiler_) return;
    for (int s = 0; s < obs::kStageCount; ++s) {
      metrics_->count(m_.prof[static_cast<std::size_t>(s)],
                      profiler_->take_window_nanos(static_cast<obs::Stage>(s)));
    }
  }

  std::vector<Lane>& lanes_;
  SchedulerPolicy& policy_;
  const StreamConfig& config_;
  const AdmissionConfig admission_;
  StreamTelemetry& telemetry_;
  obs::Tracer* const tracer_ = nullptr;            ///< null = tracing off
  obs::MetricsRegistry* const metrics_ = nullptr;  ///< null = metrics off
  obs::Profiler* const profiler_ = nullptr;        ///< null = profiling off
  const int engines_;
  const bool pre_round_;  ///< rounds read pre-round state (window_ == 1)
  const int window_;
  int overflowed_so_far_ = 0;

  StreamMetrics m_;  ///< instrument ids (valid only when metrics_ is set)

  std::vector<int> depth_;             // pre-round, for the policy view
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint8_t> paused_;   // frozen by admission this round
  std::vector<int> drainable_;         // admission: ungranted paused lanes
  // One-round path only (pre_round_): the round's engine -> lane
  // assignment and its inverse, lane -> engine or -1.
  std::vector<int> assignment_;
  std::vector<int> grant_;
  /// Tracer, [round][engine]: the lane each engine served, or -1, for the
  /// rounds since the last flush_grants(); row 0 is round served_from_.
  std::vector<int> served_;
  std::int64_t served_from_ = 0;
  std::vector<BlockRound> tallies_;    // [block][round of the dispatch]
  std::vector<BlockRound> admitted_;   // [block]: next round's pause counts
  std::vector<int> unfinished_;        // [block]: lanes left after dispatch
  /// Grants one engine consumed, summed over the run by one lane block.
  struct EngineTally {
    std::int64_t busy_rounds = 0;
    std::uint64_t cycles = 0;
  };
  /// [block][engine]: folded into engine_stats by finish(). A block's
  /// lanes write only its own row, so any number of blocks may serve one
  /// engine within a dispatch.
  std::vector<EngineTally> engine_tallies_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += obs::json_escape(text);
  out += '"';
  return out;
}

std::string json_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Configuration echo for the postmortem bundle: enough to rerun the
/// exact scenario (the trace seed/shape plus every service knob).
std::string stream_config_json(const StreamConfig& config,
                               const ResolvedStream& resolved,
                               int trace_rounds) {
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
  out += ", \"obs\": {";
  out += "\"trace\": ";
  out += resolved.trace ? "true" : "false";
  out += ", \"trace_ring\": " + std::to_string(config.obs.trace_ring);
  out += ", \"metrics\": ";
  out += resolved.metrics ? "true" : "false";
  out += ", \"metrics_window\": " + std::to_string(config.obs.metrics_window);
  out += ", \"profile\": ";
  out += config.obs.profile ? "true" : "false";
  out += ", \"slo\": " + json_string(config.obs.slo);
  out += ", \"dump_dir\": " + json_string(config.obs.dump_dir);
  out += "}}";
  return out;
}

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
  ResolvedStream resolved;
  // Arming the flight recorder implies the recorders it dumps: a
  // postmortem bundle without the event trace and the metrics heartbeat
  // would be useless at triage time. Profiling and SLOs stay opt-in.
  const bool dump = !config.obs.dump_dir.empty();
  resolved.trace = config.obs.trace || dump;
  resolved.metrics = config.obs.metrics || dump;
  resolved.metrics_window = std::max(1, config.obs.metrics_window);
  // Resolve the engine, policy, and admission specs before any lane (or
  // thread) exists so a typo fails loudly up front.
  resolved.engine = online_engine_config(config.engine);
  resolved.policy = make_scheduler_policy(config.policy);
  resolved.admission = resolve_admission(parse_admission_spec(config.admission),
                                         resolved.engine.reg_depth);
  // The SLO spec parses with the same up-front loudness; it implies a
  // metrics registry (verdicts are a function of windowed metrics) and its
  // window= option overrides the metrics window.
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

  // The pool size is ultimately a watts decision: a positive budget_w
  // caps K at the largest pool whose modelled ERSFQ dissipation fits the
  // 4-K stage (Table V). The clock sets the watts, so an unconstrained
  // cycle budget cannot be power-capped.
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

  OnlineConfig online;
  online.engine = resolved.engine;
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;

  const PlanarLattice lattice(distance);
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lanes.emplace_back(lattice, online, i, resolved.admission);
  }

  StreamOutcome outcome;
  if (resolved.trace) {
    outcome.tracer = std::make_shared<obs::Tracer>(
        n, resolved.engines,
        static_cast<std::size_t>(std::max(1, config.obs.trace_ring)));
    for (int i = 0; i < n; ++i) {
      Lane& lane = lanes[static_cast<std::size_t>(i)];
      lane.track = &outcome.tracer->lane(i);
      lane.stepper.set_obs_track(lane.track);  // engine pop events
      lane.codel.set_obs_track(lane.track);    // CoDel arm/disarm events
    }
  }
  if (resolved.metrics) {
    outcome.metrics =
        std::make_shared<obs::MetricsRegistry>(resolved.metrics_window);
  }
  if (config.obs.profile) outcome.profiler = std::make_shared<obs::Profiler>();
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
                          outcome.tracer.get(), outcome.metrics.get(),
                          outcome.profiler.get());

  // The SLO engine attaches after every other instrument is registered,
  // so its slo_ok/slo_warning/slo_page counters are the trailing metrics
  // columns (resolve_stream already checked its objective metrics).
  if (resolved.slo) {
    outcome.slo = std::make_shared<obs::SloEngine>(*resolved.slo);
    outcome.slo->attach(*outcome.metrics,
                        outcome.tracer ? &outcome.tracer->control() : nullptr);
  }

  // Arm the process-wide flight recorder before the first round so a
  // mid-run SIGUSR1 (or a fatal-signal handler installed by the bench)
  // can snapshot the live obs objects; the shared_ptr sources keep the
  // bundle writable after this function returns.
  const bool dump_armed = !config.obs.dump_dir.empty();
  if (dump_armed) {
    obs::PostmortemSources sources;
    sources.tracer = outcome.tracer;
    sources.metrics = outcome.metrics;
    sources.profiler = outcome.profiler;
    sources.slo = outcome.slo;
    sources.config_json = stream_config_json(config, resolved, trace.rounds());
    sources.dir = config.obs.dump_dir;
    obs::FlightRecorder::instance().arm(std::move(sources));
  }
  const auto poll_dump_request = [&]() {
    if (dump_armed && obs::FlightRecorder::take_dump_request()) {
      if (outcome.tracer) scheduler.flush_grants();
      obs::FlightRecorder::instance().dump("sigusr1");
    }
  };

  // One round loop for every admission mode: round t reaches every live
  // lane before any lane sees round t+1, mirroring syndrome arrival in
  // hardware. Clean layers follow each lane's trace until every lane
  // overflowed or drained, bounded by max_drain_rounds (QEC never stops in
  // hardware); a static window never crosses the stream/drain boundary.
  const std::int64_t trace_rounds = trace.rounds();
  const std::int64_t max_rounds = trace_rounds + config.max_drain_rounds;
  // After the first dispatch, each one reports whether a lane is left.
  bool unfinished = std::any_of(
      lanes.begin(), lanes.end(),
      [&](const Lane& lane) { return !lane.finished(trace.rounds()); });
  for (std::int64_t t = 0; t < max_rounds;) {
    poll_dump_request();
    if (!unfinished) break;
    const std::int64_t end = t < trace_rounds ? trace_rounds : max_rounds;
    const int count =
        static_cast<int>(std::min<std::int64_t>(scheduler.window(), end - t));
    unfinished = scheduler.dispatch(t, count, trace);
    t += count;
  }

  // Finalize each lane in the parallel region: it reads the engine's own
  // tables in place, and only drained lanes (the scored ones) unpack their
  // correction.
  for_lane_blocks(n, config.threads, [&](int, int first, int last) {
    obs::ScopedStage prof(outcome.profiler.get(), obs::Stage::kLaneExecute);
    for (int i = first; i < last; ++i) {
      Lane& lane = lanes[static_cast<std::size_t>(i)];
      const QecoolEngine& engine = lane.stepper.engine();
      LaneTelemetry& t = lane.telemetry;
      t.overflow = lane.stepper.overflowed();
      // A lane paused by admission can exit the round bound mid-trace with
      // an empty queue: it never consumed the remaining syndrome layers, so
      // it is NOT drained and must not be scored against the full-trace
      // ground truth.
      t.drained = !t.overflow && engine.all_clear() &&
                  lane.cursor >= trace.rounds() && !lane.stepper.paused();
      // The drained event lands at the lane's last executed round (its
      // track cursor) — deterministic, since a lane participates in the
      // same rounds regardless of threads or windows.
      if (t.drained && lane.track) lane.track->emit(obs::EventKind::kDrained);
      t.popped_layers = engine.popped_layers();
      t.total_cycles = engine.total_cycles();
      // Count tables are built here, in the parallel region, so the export
      // only reads them: cycles from the engine's per-layer record, sojourns
      // straight from the lane's dense count table.
      t.layer_cycles = ValueCounts(engine.layer_cycles());
      t.sojourn_rounds = lane.qos.table();
      t.matches = engine.match_stats();
      t.cache = engine.cache_stats();
      if (t.drained) {
        SyndromeHistory truth;
        truth.final_error = trace.final_error(i);
        DecodeResult decode;
        decode.correction = engine.correction();
        t.logical_failure = logical_failure(lattice, truth, decode);
      }
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
  for (const auto& lane : outcome.telemetry.lanes) {
    outcome.logical_failures += lane.logical_failure ? 1 : 0;
  }
  scheduler.finish();  // engine stats and the trailing metrics window
  return outcome;
}

StreamOutcome run_stream(const StreamConfig& config) {
  return run_stream(record_trace(config), config);
}

}  // namespace qec
