#include "stream/service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include <cstdio>

#include "decoder/registry.hpp"
#include "obs/postmortem.hpp"
#include "qecool/online_runner.hpp"
#include "sim/executor.hpp"
#include "stream/admission.hpp"
#include "stream/qos.hpp"
#include "stream/scheduler.hpp"
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
       int depth_bins)
      : stepper(lattice, online) {
    telemetry.lane = id;
    telemetry.depth_hist.assign(static_cast<std::size_t>(depth_bins), 0);
  }

  void record_depth() {
    const auto depth = static_cast<std::size_t>(stepper.engine().stored_layers());
    if (depth < telemetry.depth_hist.size()) ++telemetry.depth_hist[depth];
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
  /// and closes a latency sample on every pop spend() reports. Mutated
  /// only inside the lane-parallel region (lane-local); read on the
  /// scheduling thread between dispatches (head_age for CoDel).
  LatencyTracker qos;

  /// CoDel control law state (admission=codel only); driven on the
  /// scheduling thread in lane order.
  CodelControl codel;

  /// Next trace layer this lane will consume. Equals the global round for
  /// every live lane unless admission pauses it: a paused lane's cursor
  /// freezes while the global round marches on.
  int cursor = 0;

  /// Observability (src/obs): the lane's event track, null when tracing
  /// is off — every hook below guards on it, so a disabled tracer costs
  /// one branch. Written only inside the lane-parallel region (plus the
  /// scheduling thread between joins), so the ring stays single-writer.
  obs::Track* track = nullptr;

  /// Sojourn samples already fed to the metrics histogram. The parallel
  /// region records the cumulative sample count per (lane, round) slot;
  /// the reduction consumes the delta in fixed round order, so the
  /// windowed histogram is invariant under threads and batching.
  std::size_t obs_consumed = 0;

  /// All-zero fast-path counters already fed to the metrics registry
  /// (same cumulative-snapshot / consume-delta pattern as obs_consumed).
  DecodeCacheStats cache_consumed;
};

/// The lane-parallel region: lanes split into contiguous blocks, one
/// parallel_for task per block, each block's lanes run in lane order. One
/// block per 256 lanes (at most 16) keeps the per-task hand-off off the
/// per-lane path; a per-lane parallel_for was measured ~54% more CPU per
/// lane-round on the shared pool (DESIGN.md section 7.1). Every write a lane
/// makes is lane-local, so the block shape never changes an outcome.
template <typename Body>
void for_lanes(int n, int threads, const Body& body) {
  const int blocks = std::clamp((n + 255) / 256, 1, 16);
  const int block = (n + blocks - 1) / blocks;
  parallel_for(blocks, threads, [&](int b) {
    const int last = std::min(n, (b + 1) * block);
    for (int i = b * block; i < last; ++i) body(i);
  });
}

/// Orchestrates the shared engine pool over one run: per dispatch it asks
/// the policy for up to `batch` rounds of engine->lane assignments (on the
/// calling thread, in round order), executes them lane-parallel with all
/// writes going to lane-local slots, then reduces engine accounting and
/// the round timeline on the calling thread — so every outcome and CSV is
/// independent of the worker-thread count.
class PoolScheduler {
 public:
  PoolScheduler(std::vector<Lane>& lanes, SchedulerPolicy& policy, int engines,
                const StreamConfig& config, const AdmissionConfig& admission,
                StreamTelemetry& telemetry,
                obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                obs::Profiler* profiler)
      : lanes_(lanes),
        policy_(policy),
        config_(config),
        admission_(admission),
        telemetry_(telemetry),
        tracer_(tracer),
        metrics_(metrics),
        profiler_(profiler),
        engines_(engines),
        // One round per dispatch whenever a round must see the state the
        // previous one left: dynamic policies and pause/codel admission
        // read fresh queue depths.
        batch_(policy.dynamic() || admission.pause()
                   ? 1
                   : std::max(1, config.rounds_per_dispatch)) {
    telemetry_.engine_stats.resize(static_cast<std::size_t>(engines_));
    for (int e = 0; e < engines_; ++e) {
      telemetry_.engine_stats[static_cast<std::size_t>(e)].engine = e;
    }
    depth_.resize(lanes_.size());
    finished_.resize(lanes_.size());
    paused_.resize(lanes_.size());
    assignment_.assign(static_cast<std::size_t>(engines_), -1);
    if (metrics_) {
      // Registration order is CSV column order — keep it stable, goldens
      // pin it.
      m_pushes_ = metrics_->add_counter("pushes");
      m_drain_pushes_ = metrics_->add_counter("drain_pushes");
      m_pops_ = metrics_->add_counter("pops");
      m_serves_ = metrics_->add_counter("serves");
      m_starves_ = metrics_->add_counter("starves");
      m_overflows_ = metrics_->add_counter("overflows");
      m_pauses_ = metrics_->add_counter("pauses");
      m_resumes_ = metrics_->add_counter("resumes");
      m_live_ = metrics_->add_gauge("live_lanes");
      m_paused_ = metrics_->add_gauge("paused_lanes");
      m_overflowed_ = metrics_->add_gauge("overflowed_lanes");
      m_depth_ = metrics_->add_histogram("depth");
      m_sojourn_ = metrics_->add_histogram("sojourn");
      // Decode-cache counters append after the PR 7 instruments so the
      // established column order is untouched. Only the all-zero
      // fast-path counters move; the others stay registered (at zero) to
      // keep the CSV schema.
      for (const char* name : {"cache_hits", "cache_misses", "cache_installs",
                               "cache_evictions"}) {
        metrics_->add_counter(name);
      }
      m_cache_zero_rounds_ = metrics_->add_counter("cache_zero_rounds");
      m_cache_zero_pushes_ = metrics_->add_counter("cache_zero_pushes");
      metrics_->add_counter("cache_bypasses");
      // Wall-clock profile feed: registered only when profiling is on, so
      // the default metrics CSV schema is untouched — and these columns
      // are the ONE part of the CSV exempt from the byte-identical
      // contract (they measure real time). Values are nanoseconds accrued
      // per window; trace_export happens after the run, so its column
      // stays 0 here and lives in the profile CSV instead.
      if (profiler_) {
        m_prof_[0] = metrics_->add_counter("prof_dispatch_ns");
        m_prof_[1] = metrics_->add_counter("prof_lane_ns");
        m_prof_[2] = metrics_->add_counter("prof_reduce_ns");
        m_prof_[3] = metrics_->add_counter("prof_telemetry_ns");
        m_prof_[4] = metrics_->add_counter("prof_export_ns");
      }
    }
  }

  int batch() const { return batch_; }

  /// Runs `count` rounds starting at global round `start`. Every lane that
  /// is neither finished nor paused pushes trace layer (lane, cursor) while
  /// its cursor is inside the trace and a clean layer after that; without
  /// pausing, every live lane's cursor equals the global round. Under
  /// admission=pause/codel (count == 1) the admission step runs before the
  /// policy, and engines the policy leaves idle drain the paused lanes.
  /// Every decision is made on the calling thread in lane order, so
  /// outcomes stay a pure function of (trace, config).
  void dispatch(std::int64_t start, int count, const SyndromeTrace& trace) {
    const int n = static_cast<int>(lanes_.size());
    const int trace_rounds = trace.rounds();
    const auto slots = static_cast<std::size_t>(n) * static_cast<std::size_t>(count);
    grant_.assign(slots, -1);
    cycles_.assign(slots, 0);
    flags_.assign(slots, 0);
    depth_scratch_.assign(slots, 0);
    if (metrics_) {
      pops_.assign(slots, 0);
      samples_after_.assign(slots, 0);
      cache_after_.assign(slots, DecodeCacheStats{});
    }

    {
      // Profiler stage scopes (here and below) cost one branch each when
      // profiling is off and never touch any outcome — timing is observed,
      // not consulted.
      obs::ScopedStage prof(profiler_, obs::Stage::kDispatchAssign);

      // Pre-round lane state, after the admission step, for dynamic
      // policies and the drain grants (the constructor forces count == 1
      // for both, so it is fresh). Static policies never read it, so a
      // static overflow-mode run skips the scan.
      if (policy_.dynamic() || admission_.pause()) {
        for (int i = 0; i < n; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          Lane& lane = lanes_[idx];
          depth_[idx] = lane.stepper.engine().stored_layers();
          bool finished = lane.finished(trace_rounds);
          if (!finished && admission_.pause()) {
            finished = admit(lane, start, depth_[idx], trace_rounds);
          }
          finished_[idx] = finished ? 1 : 0;
          paused_[idx] = (!finished && lane.stepper.paused()) ? 1 : 0;
        }
      }

      // Assignments for the whole batch, in round order on this thread.
      assignments_.assign(static_cast<std::size_t>(count) *
                              static_cast<std::size_t>(engines_),
                          -1);
      ScheduleView view;
      view.lanes = n;
      view.engines = engines_;
      view.depth = depth_.data();
      view.finished = finished_.data();
      view.paused = paused_.data();
      view.grant_cycles = config_.cycles_per_round;
      for (int r = 0; r < count; ++r) {
        view.round = start + r;
        // Reset so a policy that leaves an engine's entry untouched idles it
        // instead of inheriting the previous round's grant.
        std::fill(assignment_.begin(), assignment_.end(), -1);
        policy_.assign(view, assignment_);
        for (int e = 0; e < engines_; ++e) {
          const int lane = assignment_[static_cast<std::size_t>(e)];
          assignments_[static_cast<std::size_t>(r) * engines_ +
                       static_cast<std::size_t>(e)] = lane;
          if (lane < 0) continue;
          if (lane >= n) {
            throw std::logic_error("stream: policy assigned engine " +
                                   std::to_string(e) + " to nonexistent lane " +
                                   std::to_string(lane));
          }
          auto& slot = grant_[static_cast<std::size_t>(lane) * count +
                              static_cast<std::size_t>(r)];
          if (slot >= 0) {
            throw std::logic_error(
                "stream: policy assigned two engines to lane " +
                std::to_string(lane) + " in one round");
          }
          slot = e;
        }
        if (admission_.pause()) grant_paused(r, count);
      }
    }

    // Lane-parallel execution; every write below lands in lane-local
    // state or the lane's own scratch slots.
    for_lanes(n, config_.threads, [&](int i) {
      obs::ScopedStage prof(profiler_, obs::Stage::kLaneExecute);
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      for (int r = 0; r < count; ++r) {
        const std::size_t idx = static_cast<std::size_t>(i) * count +
                                static_cast<std::size_t>(r);
        if (lane.finished(trace_rounds)) continue;
        const std::int64_t round = start + r;
        if (lane.track) lane.track->set_round(round);
        std::uint8_t flags = kPaused;
        if (lane.stepper.paused()) {
          ++lane.telemetry.paused_rounds;
          if (grant_[idx] >= 0) flags |= serve(lane, idx, round);
        } else {
          flags = kActive;
          // Backlog before this round's layer lands: the starvation test.
          const bool backlog = lane.stepper.engine().stored_layers() > 0;
          const bool real = lane.cursor < trace_rounds;
          if (real) flags |= kTrace;
          // trace.layer() hands out PackedBits: this push is a word copy
          // into the engine Reg, never a byte-per-bit repack.
          const bool pushed =
              real ? lane.stepper.push(trace.layer(i, lane.cursor))
                   : lane.stepper.push_clean();
          if (pushed) {
            flags |= kPushed;
            if (real) {
              ++lane.cursor;
              ++lane.telemetry.rounds_streamed;
            } else {
              ++lane.telemetry.drain_rounds;
            }
            if (lane.track) {
              lane.track->emit(
                  obs::EventKind::kPush,
                  static_cast<std::uint64_t>(lane.stepper.engine().stored_layers()),
                  real ? 1 : 0);
            }
            lane.qos.on_push(round, real);
            if (grant_[idx] >= 0) {
              flags |= serve(lane, idx, round);
            } else if (backlog) {
              flags |= kStarved;
              ++lane.telemetry.starved_rounds;
              if (lane.track) {
                lane.track->emit(obs::EventKind::kStarve,
                                 static_cast<std::uint64_t>(
                                     lane.stepper.engine().stored_layers()));
              }
            }
          } else if (lane.track) {
            lane.track->emit(obs::EventKind::kOverflow,
                             static_cast<std::uint64_t>(
                                 lane.stepper.engine().stored_layers()));
          }
        }
        lane.record_depth();
        depth_scratch_[idx] = lane.stepper.engine().stored_layers();
        if (metrics_) {
          samples_after_[idx] = lane.qos.samples().size();
          cache_after_[idx] = lane.stepper.engine().cache_stats();
        }
        flags_[idx] = flags;
      }
    });

    // Reductions in fixed (round, lane/engine) order on this thread.
    obs::ScopedStage prof_reduce(profiler_, obs::Stage::kReduction);
    for (int r = 0; r < count; ++r) {
      const std::int64_t round = start + r;
      RoundSample sample;
      sample.round = round;
      // A round is "drain" when no live lane tried to push a trace layer:
      // a stream round in which every live lane overflows stays "stream".
      sample.drain = true;
      for (int i = 0; i < n; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) * count +
                                static_cast<std::size_t>(r);
        const std::uint8_t flags = flags_[idx];
        if (flags & kActive) {
          ++sample.live_lanes;
          if (flags & kTrace) sample.drain = false;
          if (flags & kStarved) ++sample.starved_lanes;
          if (!(flags & kPushed)) ++overflowed_so_far_;
        } else if (flags & kPaused) {
          ++sample.paused_lanes;
        } else {
          continue;
        }
        if (flags & kServed) ++sample.served_lanes;
        sample.depth_sum += static_cast<std::uint64_t>(depth_scratch_[idx]);
        sample.depth_max = std::max(sample.depth_max, depth_scratch_[idx]);
        if (metrics_) {
          if (flags & kActive) {
            metrics_->count(!(flags & kPushed) ? m_overflows_
                            : (flags & kTrace) ? m_pushes_
                                               : m_drain_pushes_);
          }
          if (flags & kServed) {
            metrics_->count(m_serves_);
            metrics_->count(m_pops_, static_cast<std::uint64_t>(pops_[idx]));
          }
          if (flags & kStarved) metrics_->count(m_starves_);
          metrics_->observe(m_depth_,
                            static_cast<std::uint64_t>(depth_scratch_[idx]));
          consume_sojourn(lanes_[static_cast<std::size_t>(i)],
                          samples_after_[idx]);
          consume_cache(lanes_[static_cast<std::size_t>(i)],
                        cache_after_[idx]);
        }
      }
      sample.overflowed_lanes = overflowed_so_far_;
      // Rounds in which no lane took part are scheduling artifacts (a
      // batch outlives the fleet, or the last lanes finished at the
      // admission step): account nothing, so engine stats — like the
      // timeline — cover exactly the rounds with live or paused lanes and
      // stay invariant under rounds_per_dispatch.
      if (sample.live_lanes + sample.paused_lanes == 0) continue;
      if (tracer_) served_.assign(static_cast<std::size_t>(engines_), -1);
      for (int e = 0; e < engines_; ++e) {
        EngineTelemetry& stats = telemetry_.engine_stats[static_cast<std::size_t>(e)];
        const int lane = assignments_[static_cast<std::size_t>(r) * engines_ +
                                      static_cast<std::size_t>(e)];
        const std::size_t idx = lane < 0
                                    ? 0
                                    : static_cast<std::size_t>(lane) * count +
                                          static_cast<std::size_t>(r);
        if (lane >= 0 && (flags_[idx] & kServed)) {
          ++stats.busy_rounds;
          stats.cycles += cycles_[idx];
          sample.cycles += cycles_[idx];
          if (tracer_) served_[static_cast<std::size_t>(e)] = lane;
        } else {
          ++stats.idle_rounds;
        }
      }
      telemetry_.timeline.push_back(sample);
      if (tracer_) trace_round_schedule(*tracer_, round, served_, sample.drain);
      if (metrics_) {
        obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
        metrics_->set_gauge(m_live_, sample.live_lanes);
        metrics_->set_gauge(m_paused_, sample.paused_lanes);
        metrics_->set_gauge(m_overflowed_, overflowed_so_far_);
        feed_profile();
        metrics_->tick(round);
      }
    }
  }

  /// Flushes the trailing partial metrics window (feeding it the last
  /// profile deltas first) — the run_stream epilogue.
  void finish_metrics() {
    if (!metrics_) return;
    obs::ScopedStage prof_close(profiler_, obs::Stage::kTelemetryClose);
    feed_profile();
    metrics_->finish();
  }

 private:
  /// The admission step for one unfinished lane (pause/codel only), on the
  /// calling thread in lane order. A paused lane re-admits once its
  /// backlog reaches the low-water mark; an admitted lane at or above the
  /// high-water mark is paused instead of being allowed to push toward
  /// overflow. Returns whether the lane is finished afterwards.
  bool admit(Lane& lane, std::int64_t round, int depth, int trace_rounds) {
    if (lane.stepper.paused()) {
      // Codel re-admits when the standing latency dissolved (head sojourn
      // back under target) or the backlog drained to the low-water mark —
      // whichever comes first; pause mode uses the depth mark alone.
      const bool readmit =
          depth <= admission_.low_water ||
          (admission_.codel() &&
           lane.codel.should_resume(lane.qos.head_age(round), depth));
      if (!readmit) return false;
      lane.stepper.resume();
      ++lane.telemetry.resumes;
      if (admission_.codel()) lane.codel.on_resume(round);
      if (lane.track) trace_admission_resume(*lane.track, round, depth);
      if (metrics_) metrics_->count(m_resumes_);
      // A fully drained lane with no trace left finishes on resume.
      return lane.finished(trace_rounds);
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
      if (metrics_) metrics_->count(m_pauses_);
    }
    return false;
  }

  /// Admission drain grants for round r of a batch: engines left idle or
  /// pointed at finished lanes serve the paused lanes' backlogs, deepest
  /// first (lane-index ties) — deterministic, independent of the policy in
  /// use, and the reason a paused backlog always eventually drains.
  void grant_paused(int r, int count) {
    const auto at = [count, r](int lane) {
      return static_cast<std::size_t>(lane) * count + static_cast<std::size_t>(r);
    };
    drainable_.clear();
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
      if (paused_[static_cast<std::size_t>(i)] && grant_[at(i)] < 0) {
        drainable_.push_back(i);
      }
    }
    std::sort(drainable_.begin(), drainable_.end(), [this](int a, int b) {
      const int da = depth_[static_cast<std::size_t>(a)];
      const int db = depth_[static_cast<std::size_t>(b)];
      return da != db ? da > db : a < b;
    });
    std::size_t next = 0;
    for (int e = 0; e < engines_ && next < drainable_.size(); ++e) {
      int& lane = assignments_[static_cast<std::size_t>(r) * engines_ +
                               static_cast<std::size_t>(e)];
      if (lane >= 0 && !finished_[static_cast<std::size_t>(lane)]) continue;
      lane = drainable_[next++];
      grant_[at(lane)] = e;
    }
  }

  /// Spends the lane's engine grant in `round` and returns kServed. Runs
  /// in the lane-parallel region: writes only lane-local state and the
  /// lane's own scratch slot `idx`.
  std::uint8_t serve(Lane& lane, std::size_t idx, std::int64_t round) {
    cycles_[idx] = lane.stepper.spend(config_.cycles_per_round);
    lane.qos.on_pops(lane.stepper.last_spend_pops(), round);
    ++lane.telemetry.served_rounds;
    if (lane.track) lane.track->emit(obs::EventKind::kSpend, cycles_[idx]);
    if (metrics_) pops_[idx] = lane.stepper.last_spend_pops();
    return kServed;
  }

  /// Feeds the lane's sojourn samples [obs_consumed, upto) to the windowed
  /// histogram. Called only from the reductions, in fixed (round, lane)
  /// order, so window attribution never depends on threads or batching.
  void consume_sojourn(Lane& lane, std::size_t upto) {
    const auto& samples = lane.qos.samples();
    for (std::size_t k = lane.obs_consumed; k < upto; ++k) {
      metrics_->observe(m_sojourn_, samples[k]);
    }
    lane.obs_consumed = upto;
  }

  /// Feeds the delta between the lane's cumulative all-zero fast-path
  /// counters and what was already consumed to the metrics registry. Same
  /// fixed reduction order as consume_sojourn, so window attribution never
  /// depends on threads or batching.
  void consume_cache(Lane& lane, const DecodeCacheStats& after) {
    const DecodeCacheStats& before = lane.cache_consumed;
    metrics_->count(m_cache_zero_rounds_,
                    after.zero_rounds - before.zero_rounds);
    metrics_->count(m_cache_zero_pushes_,
                    after.zero_pushes - before.zero_pushes);
    lane.cache_consumed = after;
  }

  /// Feeds the wall-clock nanoseconds accrued since the previous feed into
  /// the prof_* counters, so each metrics window carries its own share.
  /// Scopes still open when this runs (the enclosing reduction, the
  /// telemetry close itself) are attributed to the window open when they
  /// end — wall-clock values are non-deterministic either way.
  void feed_profile() {
    if (!profiler_) return;
    for (int s = 0; s < obs::kStageCount; ++s) {
      metrics_->count(m_prof_[static_cast<std::size_t>(s)],
                      profiler_->take_window_nanos(static_cast<obs::Stage>(s)));
    }
  }

  static constexpr std::uint8_t kActive = 1;   ///< lane pushed (or overflowed)
  static constexpr std::uint8_t kPushed = 2;   ///< layer accepted (no overflow)
  static constexpr std::uint8_t kServed = 4;   ///< consumed an engine grant
  static constexpr std::uint8_t kStarved = 8;  ///< backlogged, no grant
  static constexpr std::uint8_t kPaused = 16;  ///< frozen by admission
  static constexpr std::uint8_t kTrace = 32;   ///< tried to push a trace layer

  std::vector<Lane>& lanes_;
  SchedulerPolicy& policy_;
  const StreamConfig& config_;
  const AdmissionConfig admission_;
  StreamTelemetry& telemetry_;
  obs::Tracer* const tracer_ = nullptr;            ///< null = tracing off
  obs::MetricsRegistry* const metrics_ = nullptr;  ///< null = metrics off
  obs::Profiler* const profiler_ = nullptr;        ///< null = profiling off
  const int engines_;
  const int batch_;
  int overflowed_so_far_ = 0;

  // Metrics instrument ids (valid only when metrics_ is set).
  int m_pushes_ = -1;
  int m_drain_pushes_ = -1;
  int m_pops_ = -1;
  int m_serves_ = -1;
  int m_starves_ = -1;
  int m_overflows_ = -1;
  int m_pauses_ = -1;
  int m_resumes_ = -1;
  int m_live_ = -1;
  int m_paused_ = -1;
  int m_overflowed_ = -1;
  int m_depth_ = -1;
  int m_sojourn_ = -1;
  int m_cache_zero_rounds_ = -1;
  int m_cache_zero_pushes_ = -1;
  std::array<int, obs::kStageCount> m_prof_{};  ///< per-stage nanos counters

  std::vector<int> depth_;             // pre-round, for the policy view
  std::vector<std::uint8_t> finished_;
  std::vector<std::uint8_t> paused_;   // frozen by admission this round
  std::vector<int> drainable_;         // admission: ungranted paused lanes
  std::vector<int> assignment_;        // one round, engine -> lane
  std::vector<int> assignments_;       // whole batch, [round][engine]
  std::vector<int> grant_;             // [lane][round]: engine or -1
  std::vector<std::uint64_t> cycles_;  // [lane][round]: cycles consumed
  std::vector<std::uint8_t> flags_;    // [lane][round]: kActive | ...
  std::vector<int> depth_scratch_;     // [lane][round]: post-round depth
  std::vector<int> served_;            // tracer: per-round consumed grants
  std::vector<int> pops_;              // metrics: [lane][round] layers popped
  std::vector<std::size_t> samples_after_;  // metrics: cumulative sojourn count
  std::vector<DecodeCacheStats> cache_after_;  // metrics: cumulative cache stats
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += "\"";
  return out;
}

std::string json_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Configuration echo for the postmortem bundle: enough to rerun the
/// exact scenario (the trace seed/shape plus every service knob).
std::string stream_config_json(const StreamConfig& config, int trace_rounds,
                               int engines) {
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
  out += ", \"engines\": " + std::to_string(engines);
  out += ", \"policy\": " + json_string(config.policy);
  out += ", \"rounds_per_dispatch\": " +
         std::to_string(config.rounds_per_dispatch);
  out += ", \"admission\": " + json_string(config.admission);
  out += ", \"budget_w\": " + json_double(config.budget_w);
  out += ", \"threads\": " + std::to_string(config.threads);
  out += ", \"obs\": {";
  out += "\"trace\": ";
  out += config.obs.trace ? "true" : "false";
  out += ", \"trace_ring\": " + std::to_string(config.obs.trace_ring);
  out += ", \"metrics\": ";
  out += config.obs.metrics ? "true" : "false";
  out += ", \"metrics_window\": " + std::to_string(config.obs.metrics_window);
  out += ", \"profile\": ";
  out += config.obs.profile ? "true" : "false";
  out += ", \"slo\": " + json_string(config.obs.slo);
  out += ", \"dump_dir\": " + json_string(config.obs.dump_dir);
  out += "}}";
  return out;
}

}  // namespace

SyndromeTrace record_trace(const StreamConfig& config) {
  if (config.lanes < 1) throw std::invalid_argument("stream: lanes must be >= 1");
  if (!(config.p >= 0.0 && config.p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument("stream: p must be in [0, 1]");
  }
  if (config.rounds < 0) {
    throw std::invalid_argument("stream: rounds must be >= 0 (0 = distance)");
  }
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

  SyndromeTrace trace(header);
  parallel_for(config.lanes, config.threads, [&](int lane) {
    // Packed layers go straight into this lane's slots (disjoint from
    // every other lane's): no SyndromeHistory, no per-round allocation.
    Xoshiro256ss rng = lane_rng(config, lane, noisy_rounds);
    PhenomenologicalSampler sampler(lattice, {config.p, config.p, noisy_rounds},
                                    rng);
    for (int t = 0; t < sampler.total_rounds(); ++t) {
      trace.set_layer(lane, t, sampler.next());
    }
    trace.set_final_error(lane, sampler.data_error().to_bits());
  });
  return trace;
}

StreamOutcome run_stream(const SyndromeTrace& trace,
                         const StreamConfig& user_config) {
  const int n = trace.lanes();
  if (n < 1) throw std::invalid_argument("stream: trace has no lanes");
  // Arming the flight recorder implies the recorders it dumps: a
  // postmortem bundle without the event trace and the metrics heartbeat
  // would be useless at triage time. Profiling and SLOs stay opt-in.
  StreamConfig config = user_config;
  if (!config.obs.dump_dir.empty()) {
    config.obs.trace = true;
    config.obs.metrics = true;
  }
  // Resolve the engine, policy, and admission specs before any lane (or
  // thread) exists so a typo fails loudly up front.
  const QecoolConfig engine_config = online_engine_config(config.engine);
  const auto policy = make_scheduler_policy(config.policy);
  const AdmissionConfig admission = resolve_admission(
      parse_admission_spec(config.admission), engine_config.reg_depth);
  // The SLO spec parses with the same up-front loudness; it implies a
  // metrics registry (verdicts are a function of windowed metrics) and its
  // window= option overrides the metrics window.
  const bool slo_enabled = !config.obs.slo.empty();
  obs::SloConfig slo_config;
  if (slo_enabled) slo_config = obs::parse_slo_spec(config.obs.slo);
  int engines = config.engines <= 0 ? n : config.engines;

  // The pool size is ultimately a watts decision: a positive budget_w
  // caps K at the largest pool whose modelled ERSFQ dissipation fits the
  // 4-K stage (Table V). The clock sets the watts, so an unconstrained
  // cycle budget cannot be power-capped.
  const double freq_hz =
      config.cycles_per_round > 0 ? config.cycles_per_round * 1e6 : 0.0;
  if (config.budget_w > 0) {
    if (freq_hz <= 0) {
      throw std::invalid_argument(
          "stream: budget_w needs a positive cycles_per_round — an "
          "unconstrained clock has no defined power");
    }
    const int fit = PoolPowerModel::max_engines(
        config.budget_w, static_cast<int>(trace.header().distance), freq_hz);
    if (fit < 1) {
      throw std::invalid_argument(
          "stream: power budget cannot supply even one engine at this "
          "distance and clock");
    }
    engines = std::min(engines, fit);
  }
  if (engines < 1 || engines > n) {
    throw std::invalid_argument("stream: engines must be in [1, lanes], got " +
                                std::to_string(engines));
  }
  policy->validate(n, engines);

  OnlineConfig online;
  online.engine = engine_config;
  online.cycles_per_round = config.cycles_per_round;
  online.max_drain_rounds = config.max_drain_rounds;

  const PlanarLattice lattice(static_cast<int>(trace.header().distance));
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lanes.emplace_back(lattice, online, i, engine_config.reg_depth + 1);
  }
  if (admission.codel()) {
    for (auto& lane : lanes) {
      lane.codel = CodelControl(admission.target, admission.interval);
    }
  }

  StreamOutcome outcome;
  if (config.obs.trace) {
    outcome.tracer = std::make_shared<obs::Tracer>(
        n, engines,
        static_cast<std::size_t>(std::max(1, config.obs.trace_ring)));
    for (int i = 0; i < n; ++i) {
      Lane& lane = lanes[static_cast<std::size_t>(i)];
      lane.track = &outcome.tracer->lane(i);
      lane.stepper.set_obs_track(lane.track);  // engine pop events
      lane.codel.set_obs_track(lane.track);    // CoDel arm/disarm events
    }
  }
  if (config.obs.metrics || slo_enabled) {
    int metrics_window = std::max(1, config.obs.metrics_window);
    if (slo_enabled && slo_config.window > 0) metrics_window = slo_config.window;
    outcome.metrics = std::make_shared<obs::MetricsRegistry>(metrics_window);
  }
  if (config.obs.profile) {
    outcome.profiler = std::make_shared<obs::Profiler>(
        static_cast<std::size_t>(std::max(1, config.obs.profile_ring)));
  }
  outcome.telemetry.distance = static_cast<int>(trace.header().distance);
  outcome.telemetry.p = trace.header().p_data;
  outcome.telemetry.cycles_per_round = config.cycles_per_round;
  outcome.telemetry.seed = trace.header().seed;
  outcome.telemetry.engine = config.engine;
  outcome.telemetry.policy = config.policy;
  outcome.telemetry.admission = config.admission;
  outcome.telemetry.engines = engines;
  outcome.telemetry.budget_w = config.budget_w;
  if (freq_hz > 0) {
    const PoolPowerModel power{engines,
                               static_cast<int>(trace.header().distance),
                               freq_hz};
    outcome.telemetry.watts = power.watts();
  }

  PoolScheduler scheduler(lanes, *policy, engines, config, admission,
                          outcome.telemetry,
                          outcome.tracer.get(), outcome.metrics.get(),
                          outcome.profiler.get());

  // The SLO engine attaches after every other instrument is registered,
  // so its slo_ok/slo_warning/slo_page counters are the trailing metrics
  // columns; unknown objective metrics fail loudly here, before any round
  // executes.
  if (slo_enabled) {
    outcome.slo = std::make_shared<obs::SloEngine>(slo_config);
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
    sources.config_json = stream_config_json(config, trace.rounds(), engines);
    sources.dir = config.obs.dump_dir;
    obs::FlightRecorder::instance().arm(std::move(sources));
  }
  const auto poll_dump_request = [dump_armed]() {
    if (dump_armed && obs::FlightRecorder::take_dump_request()) {
      obs::FlightRecorder::instance().dump("sigusr1");
    }
  };

  // One round loop for every admission mode: round t reaches every live
  // lane before any lane sees round t+1, mirroring syndrome arrival in
  // hardware. Clean layers follow each lane's trace until every lane
  // overflowed or drained, bounded by max_drain_rounds (QEC never stops in
  // hardware); a dispatch batch never crosses the stream/drain boundary.
  const std::int64_t trace_rounds = trace.rounds();
  const std::int64_t max_rounds = trace_rounds + config.max_drain_rounds;
  const auto finished = [&trace](const Lane& lane) {
    return lane.finished(trace.rounds());
  };
  for (std::int64_t t = 0; t < max_rounds;) {
    poll_dump_request();
    if (std::all_of(lanes.begin(), lanes.end(), finished)) break;
    const std::int64_t end = t < trace_rounds ? trace_rounds : max_rounds;
    const int count =
        static_cast<int>(std::min<std::int64_t>(scheduler.batch(), end - t));
    scheduler.dispatch(t, count, trace);
    t += count;
  }

  // Finalize each lane (the logical scoring decodes nothing, but keep it
  // in the parallel region: it is per-lane work too).
  for_lanes(n, config.threads, [&](int i) {
    obs::ScopedStage prof(outcome.profiler.get(), obs::Stage::kLaneExecute);
    Lane& lane = lanes[static_cast<std::size_t>(i)];
    const OnlineResult result = lane.stepper.result();
    LaneTelemetry& t = lane.telemetry;
    t.overflow = result.overflow;
    // A lane paused by admission can exit the round bound mid-trace with
    // an empty queue: it never consumed the remaining syndrome layers, so
    // it is NOT drained and must not be scored against the full-trace
    // ground truth.
    const bool drained = result.drained && lane.cursor >= trace.rounds() &&
                         !lane.stepper.paused();
    t.drained = drained;
    // The drained event lands at the lane's last executed round (its
    // track cursor) — deterministic, since a lane participates in the
    // same rounds regardless of threads or batching.
    if (drained && lane.track) lane.track->emit(obs::EventKind::kDrained);
    t.popped_layers = static_cast<int>(result.layer_cycles.size());
    t.total_cycles = result.total_cycles;
    // Count tables are built here, in the parallel region, so the export
    // only reads them. The sojourn samples stay with the lane and go with
    // it: freeing them here, from the worker threads, measured costlier
    // than building both tables.
    t.layer_cycles = ValueCounts(result.layer_cycles);
    t.sojourn_rounds = ValueCounts(lane.qos.samples());
    t.matches = result.matches;
    t.cache = lane.stepper.engine().cache_stats();
    if (!result.overflow && drained) {
      SyndromeHistory truth;
      truth.final_error = trace.final_error(i);
      DecodeResult decode;
      decode.correction = result.correction;
      t.logical_failure = logical_failure(lattice, truth, decode);
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
  scheduler.finish_metrics();  // flush the trailing partial window
  return outcome;
}

StreamOutcome run_stream(const StreamConfig& config) {
  return run_stream(record_trace(config), config);
}

}  // namespace qec
