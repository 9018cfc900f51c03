// Lane quality-of-service for the streaming decode service: sojourn-time
// latency tracking, CoDel admission control, and an FQ-CoDel-style fair
// scheduler. The keep-up argument of the paper is ultimately a *latency*
// argument — a syndrome round that sits in a lane's Reg past reg_depth
// rounds is lost — yet depth watermarks (admission=pause) only react after
// the damage is queued. This layer controls on *time in queue* instead,
// the CoDel insight translated from wall-clock to logical rounds.
//
// Three pieces (see DESIGN.md section 10):
//
//  - LatencyTracker: the per-lane sojourn clock. Every pushed difference
//    layer is timestamped with the global round at enqueue; when the
//    engine pops it (OnlineStepper::spend reports pops per grant), the
//    sample pop_round - push_round + 1 is recorded — the end-to-end
//    round latency of that measurement layer, *including* any rounds the
//    lane spent frozen by admission control. In-flight timestamps live in
//    a ring sized once to the Reg depth, and closed samples in an exact
//    count table indexed by sojourn rounds (no reservoir, no per-sample
//    storage); percentiles are the same nearest-rank order statistics the
//    cycle-latency telemetry reads off its ValueCounts tables.
//
//  - CodelControl: the CoDel control law in logical rounds. A lane whose
//    *minimum* sojourn over the last `interval` rounds stays at or above
//    `target` is paused; consecutive pauses shrink the interval by
//    1/sqrt(count) — exactly CoDel's drop law with "drop" replaced by
//    "freeze the lane's logical clock" (admission=codel:target=T,interval=I,
//    src/stream/admission.hpp).
//
//  - The `fq` SchedulerPolicy (registered in stream/scheduler.cpp,
//    constructed by make_fq_policy): deficit-round-robin over new/old
//    lane lists with a configurable quantum of engine cycles. A lane
//    that starts backlogging joins the *new* list with one quantum of
//    credit and is served ahead of the old list once, then rotates into
//    the old list — FQ-CoDel's new-flow priority, so a freshly-bursting
//    lane gets immediate service without letting it starve the rest.
//
// Determinism: LatencyTracker and CodelControl are lane-local, touched
// only by the lane's own block (a CoDel decision reads only its lane's
// state and the round number); fq assignments happen on the scheduling
// thread in list order. Outcomes and every CSV remain pure functions of
// (trace, config minus threads).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "stream/scheduler.hpp"

namespace qec {

namespace obs {
class Track;  // obs/trace.hpp — CoDel arm/disarm transitions emit here
class LogHistogram;  // obs/metrics.hpp — the service's sojourn partials
}

/// Q0.32 fixed-point reciprocal square root — the integer-only CoDel
/// interval math (DESIGN.md section 11). `rec_inv_sqrt` represents
/// 1/sqrt(count) as round(2^32 / sqrt(count)), saturated at 2^32 - 1 for
/// count <= 1. An SFQ admission controller has no FPU; the control law
/// must close in adders and shifters, so the interval shrink runs on
/// these helpers in hardware-representable arithmetic. This is the single
/// shared Newton step (the Linux codel.h lineage) — widened from the
/// kernel's u16 to full 32-bit precision so the shrink rounds identically
/// to llround(interval / sqrt(k)) for every interval below 2^31.

/// One Newton-Raphson iteration for 1/sqrt(k) in Q0.32:
///   v' = v/2 * (3 - k * v^2)
/// Converges monotonically upward from any underestimate of the root.
std::uint32_t codel_newton_step(std::uint32_t rec_inv_sqrt,
                                std::uint32_t count);

/// Fully converged Q0.32 reciprocal square root of `count` (iterates
/// codel_newton_step from a power-of-two underestimate to its fixed
/// point). count <= 1 returns the saturated representation of 1.0.
std::uint32_t codel_rec_inv_sqrt(std::uint32_t count);

/// interval * rec_inv_sqrt in Q0.32 with round-half-up — the shrunk CoDel
/// deadline. Matches llround(interval / sqrt(k)) for positive arguments;
/// never below one round. `interval` must be in [0, 2^31).
std::int64_t codel_shrunk_interval(std::int64_t interval,
                                   std::uint32_t rec_inv_sqrt);

/// FIFO in a ring whose capacity is set once: the QoS queues have hard
/// bounds (a lane's Reg depth, the fleet size), so they never grow or
/// allocate once sized. Callers check full() / empty() first.
template <typename T>
class BoundedFifo {
 public:
  BoundedFifo() = default;
  explicit BoundedFifo(std::size_t capacity) : slots_(capacity) {}

  /// Empties the queue and sets its capacity.
  void reset(std::size_t capacity) {
    slots_.assign(capacity, T{});
    head_ = 0;
    size_ = 0;
  }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }
  std::size_t size() const { return size_; }
  const T& front() const { return slots_[head_]; }
  void pop_front() {
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }
  void push_back(const T& value) {
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = value;
    ++size_;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Per-lane sojourn clock: exact end-to-end round latency of every decoded
/// difference layer. Push events timestamp layers at enqueue; pop events
/// (reported by OnlineStepper::spend) close the samples. Storage is fixed
/// per lane: the in-flight ring holds at most the Reg depth, and the count
/// table grows only with the longest sojourn seen, never with run length.
class LatencyTracker {
 public:
  /// A clock for a lane whose Reg holds at most `capacity` layers: in-flight
  /// layers are the engine's stored layers, so the ring never needs more.
  explicit LatencyTracker(int capacity);

  /// A layer entered the lane's Reg in global round `round`. `real` marks
  /// trace layers; clean drain layers ride the same FIFO (pop attribution
  /// needs every enqueue) but do not produce latency samples. Throws
  /// std::logic_error when `capacity` layers are already in flight (an
  /// accounting bug: the engine would have overflowed instead).
  void on_push(std::int64_t round, bool real);

  /// The engine fully decoded (popped) `count` layers during global round
  /// `round`. Records one sample per real layer: round - push_round + 1,
  /// i.e. a layer decoded within its arrival interval has sojourn 1. Each
  /// sample is also observed into `sink` when given (the service's
  /// per-block metrics partial). Throws std::logic_error if more pops are
  /// reported than layers are in flight (an accounting bug, never a data
  /// condition).
  void on_pops(int count, std::int64_t round,
               obs::LogHistogram* sink = nullptr);

  /// Age of the oldest resident layer at the start of round `now`: the
  /// completed rounds it has waited so far (>= 1 once it survives its
  /// arrival round). 0 when nothing is in flight — the CoDel observable.
  std::int64_t head_age(std::int64_t now) const;

  /// Layers pushed but not yet popped.
  int in_flight() const { return static_cast<int>(ring_.size()); }

  /// Dense count table of completed samples: counts()[s] samples had
  /// sojourn s rounds (index 0 is always 0).
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// The completed samples as an exact ValueCounts table.
  ValueCounts table() const { return ValueCounts::from_dense(counts_); }

  /// Exact nearest-rank percentile over the samples (0 when empty).
  std::uint64_t percentile(double q) const { return table().percentile(q); }

 private:
  BoundedFifo<std::int64_t> ring_;  ///< push rounds: round << 1 | real
  std::vector<std::uint64_t> counts_;
};

/// CoDel's control law in logical rounds, one instance per lane. The
/// caller observes the lane once per scheduling round (pre-push) and asks
/// should_pause() while the lane is admitted, should_resume() while it is
/// paused; on_resume() must be called when the lane is re-admitted so
/// consecutive pauses are detected.
///
/// Law (the ACM-queue CoDel state machine, rounds for nanoseconds, pause
/// for drop): the lane is "above" while its head sojourn is >= target and
/// at least 2 layers are resident (one resident layer is not a standing
/// queue — the MTU guard). The first above round arms a deadline one
/// interval out; staying above through the deadline pauses the lane. The
/// k-th consecutive pause uses a deadline of interval/sqrt(k) rounds —
/// persistent congestion is squeezed harder. The consecutive count resets
/// once the lane stays healthy for longer than `interval` after a resume.
class CodelControl {
 public:
  CodelControl() = default;
  CodelControl(int target, int interval) : target_(target), interval_(interval) {}

  /// One admitted-round observation. `sojourn` is the lane's head age,
  /// `depth` its stored layers. True = pause the lane now (the decision
  /// is consumed: the armed deadline resets and the pause count bumps).
  bool should_pause(std::int64_t now, std::int64_t sojourn, int depth);

  /// One paused-round observation: re-admit once the backlog's head
  /// sojourn fell below target or the queue fully drained.
  bool should_resume(std::int64_t sojourn, int depth) const {
    return depth == 0 || sojourn < target_;
  }

  /// The lane was re-admitted in round `now` (starts the consecutive-pause
  /// window).
  void on_resume(std::int64_t now) { last_resume_ = now; }

  int target() const { return target_; }
  int interval() const { return interval_; }
  /// Consecutive pauses so far (the sqrt divisor); resets after a healthy
  /// interval.
  int consecutive_pauses() const { return count_; }
  /// Deadline the (count+1)-th consecutive pause would use, in rounds.
  std::int64_t next_deadline_rounds() const { return shrunk_interval(count_ + 1); }

  /// Observability hook (src/obs): when set, arming and disarming the
  /// CoDel deadline emit kCodelArm/kCodelDisarm events (payload = the
  /// head sojourn that flipped the state) onto the lane's track. The
  /// pause decision itself is traced by the admission controller.
  void set_obs_track(obs::Track* track) { obs_track_ = track; }

 private:
  std::int64_t shrunk_interval(int k) const;

  static constexpr std::int64_t kNever = INT64_MIN / 4;
  int target_ = 1;
  int interval_ = 1;
  int count_ = 0;                  ///< consecutive pauses (sqrt divisor)
  std::int64_t armed_at_ = -1;     ///< first consecutive above-target round
  std::int64_t last_resume_ = kNever;
  obs::Track* obs_track_ = nullptr;  ///< arm/disarm sink; null = off
  /// Memo of the last converged rec_inv_sqrt — consecutive observations
  /// reuse the same k, so the Newton loop runs once per count change
  /// (mirroring the kernel's incremental-update trick without its u16
  /// precision loss).
  mutable std::uint32_t memo_count_ = 0;
  mutable std::uint32_t memo_rec_ = 0;
};

/// Constructs the `fq` scheduler policy (deficit-round-robin over new/old
/// lane lists, FQ-CoDel style). Options: quantum (engine cycles granted
/// per DRR turn, > 0; 0 or absent = one engine grant's worth). Registered
/// under "fq" in the scheduler-policy registry.
std::unique_ptr<SchedulerPolicy> make_fq_policy(const DecoderOptions& options);

}  // namespace qec
