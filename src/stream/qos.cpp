#include "stream/qos.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qec {

std::uint32_t codel_newton_step(std::uint32_t rec_inv_sqrt,
                                std::uint32_t count) {
  // v' = v/2 * (3 - k v^2), all in Q0.32. The invariant v <= 1/sqrt(k)
  // keeps k * v^2 <= 1, so the 64-bit intermediates cannot overflow.
  const std::uint64_t v = rec_inv_sqrt;
  const std::uint64_t v2 = (v * v) >> 32;               // Q0.32 of v^2
  std::uint64_t val = (3ULL << 32) - count * v2;        // Q2.32 of 3 - k v^2
  val >>= 2;                                            // (3 - k v^2) / 4
  val = (val * v) >> 31;                                // v (3 - k v^2) / 2
  return val > 0xffffffffULL ? 0xffffffffU
                             : static_cast<std::uint32_t>(val);
}

std::uint32_t codel_rec_inv_sqrt(std::uint32_t count) {
  if (count <= 1) return 0xffffffffU;  // saturated 1.0
  // Seed with 2^-ceil(bit_width/2): a power-of-two underestimate of
  // 1/sqrt(count), so Newton climbs toward the root. Convergence is
  // quadratic, but the truncating Q0.32 arithmetic can stall a few ULP
  // short or (for large counts, where v^2 carries few significant bits)
  // drift past it, so the loop runs to its first non-increasing step and
  // a correction pass lands exactly on round(2^32 / sqrt(count)).
  const int width = std::bit_width(count);
  std::uint32_t v = 1U << (32 - (width + 1) / 2);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t next = codel_newton_step(v, count);
    if (next <= v) break;
    v = next;
  }
  // Exact rounding, still integer-only: the floor f of 2^32 / sqrt(k) is
  // the largest v with v^2 k <= 2^64, and rounding to nearest picks f + 1
  // exactly when (2f + 1)^2 k < 2^66 (the half-point test squared). The
  // wide products are bounded by 2^98, well inside 128 bits.
  using u128 = unsigned __int128;
  const u128 k = count;
  const u128 limit = u128{1} << 64;
  while (u128{v} * v * k > limit) --v;
  while ((u128{v} + 1) * (u128{v} + 1) * k <= limit) ++v;
  const u128 half = 2 * u128{v} + 1;
  if (half * half * k < u128{1} << 66) ++v;
  return v;
}

std::int64_t codel_shrunk_interval(std::int64_t interval,
                                   std::uint32_t rec_inv_sqrt) {
  // Round-half-up of interval * rec_inv_sqrt / 2^32: identical to
  // llround(interval / sqrt(k)) for positive values. The product is
  // bounded by (2^31 - 1)(2^32 - 1) < 2^63, so uint64 cannot wrap.
  const std::uint64_t product =
      static_cast<std::uint64_t>(interval) * rec_inv_sqrt;
  const auto shrunk =
      static_cast<std::int64_t>((product + (1ULL << 31)) >> 32);
  return shrunk < 1 ? 1 : shrunk;
}

LatencyTracker::LatencyTracker(int capacity)
    : ring_(static_cast<std::size_t>(std::max(1, capacity))),
      // Sojourns stay within a few Reg depths unless a lane is frozen or
      // starved; size for that once, grow only past it.
      counts_(static_cast<std::size_t>(std::max(1, capacity)) + 2, 0) {}

void LatencyTracker::on_push(std::int64_t round, bool real) {
  if (ring_.full()) {
    throw std::logic_error(
        "latency tracker: push past the Reg depth (more layers in flight "
        "than the engine can store)");
  }
  ring_.push_back(round * 2 + (real ? 1 : 0));
}

void LatencyTracker::on_pops(int count, std::int64_t round,
                             obs::LogHistogram* sink) {
  if (count < 0 || static_cast<std::size_t>(count) > ring_.size()) {
    throw std::logic_error(
        "latency tracker: engine reported more pops than layers in flight");
  }
  for (int i = 0; i < count; ++i) {
    const std::int64_t entry = ring_.front();
    ring_.pop_front();
    if (!(entry & 1)) continue;  // clean drain layer
    const auto sojourn = static_cast<std::uint64_t>(round - (entry >> 1) + 1);
    if (sojourn >= counts_.size()) counts_.resize(sojourn + 1, 0);
    ++counts_[sojourn];
    if (sink) sink->observe(sojourn);
  }
}

std::int64_t LatencyTracker::head_age(std::int64_t now) const {
  return ring_.empty() ? 0 : now - (ring_.front() >> 1);
}

std::int64_t CodelControl::shrunk_interval(int k) const {
  // interval / sqrt(count), the classic CoDel drop spacing — computed
  // entirely in Q0.32 fixed point (no FPU on the SFQ controller). The
  // converged reciprocal root is memoized per count: consecutive
  // observations at the same pause count skip the Newton loop.
  const auto count = static_cast<std::uint32_t>(k);
  if (count != memo_count_) {
    memo_count_ = count;
    memo_rec_ = codel_rec_inv_sqrt(count);
  }
  return codel_shrunk_interval(interval_, memo_rec_);
}

bool CodelControl::should_pause(std::int64_t now, std::int64_t sojourn,
                                int depth) {
  if (sojourn < target_ || depth < 2) {
    // Healthy (or not a standing queue): disarm. The consecutive-pause
    // count survives until a full healthy interval elapses, below.
    if (armed_at_ >= 0 && obs_track_) {
      obs_track_->emit_at(now, obs::EventKind::kCodelDisarm,
                          static_cast<std::uint64_t>(sojourn));
    }
    armed_at_ = -1;
    return false;
  }
  if (armed_at_ < 0) {
    armed_at_ = now;
    // Re-entering the above-target state long after the last resume is a
    // fresh congestion event, not a continuation: reset the sqrt divisor.
    if (last_resume_ == kNever || now - last_resume_ > interval_) count_ = 0;
    if (obs_track_) {
      obs_track_->emit_at(now, obs::EventKind::kCodelArm,
                          static_cast<std::uint64_t>(sojourn));
    }
  }
  if (now - armed_at_ + 1 >= shrunk_interval(count_ + 1)) {
    ++count_;
    armed_at_ = -1;
    return true;
  }
  return false;
}

namespace {

/// Deficit-round-robin over new/old lane lists (FQ-CoDel's scheduler,
/// lanes for flows, engine grants for packets). Each round the policy
/// walks the new list, then the old list, granting an engine to every
/// backlogged lane whose deficit is positive; a lane at the head with no
/// deficit is topped up by one quantum and rotated to the old-list tail.
/// Lanes joining with fresh backlog enter the new list with one quantum —
/// served ahead of everyone once, then they rotate into the old list like
/// any other lane, so a burst gets priority service exactly once per
/// backlog episode.
// DRR credit is tracked in Q48.16 fixed-point engine cycles (1/65536 of a
// cycle resolution): doubles cross into the policy only at the config
// boundary (to_fixed16 below), and every per-round deficit update is pure
// int64 add/subtract/compare — the arithmetic an SFQ scheduler can
// actually implement. Grant costs and quanta are round-constant, so the
// one-time conversion rounds once and the accumulated credit is exact
// integer arithmetic thereafter.
constexpr std::int64_t kFix16One = 1 << 16;

std::int64_t to_fixed16(double cycles) {
  return static_cast<std::int64_t>(std::llround(cycles * 65536.0));
}

class FqCodelPolicy final : public SchedulerPolicy {
 public:
  explicit FqCodelPolicy(double quantum) : quantum_opt_(quantum) {}

  bool dynamic() const override { return true; }

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    const auto n = static_cast<std::size_t>(view.lanes);
    if (membership_.size() != n) {
      membership_.assign(n, List::kNone);
      deficit_.assign(n, 0);
      new_.reset(n);
      old_.reset(n);
    }
    granted_.assign(n, 0);

    // One engine grant is worth the per-round cycle budget; with an
    // unconstrained budget DRR degenerates to counting grants (cost 1).
    const std::int64_t grant_cost =
        view.grant_cycles > 0 ? to_fixed16(view.grant_cycles) : kFix16One;
    const std::int64_t quantum =
        quantum_opt_ > 0 ? to_fixed16(quantum_opt_) : grant_cost;

    // Enroll lanes that just became backlogged, in lane order.
    for (int lane = 0; lane < view.lanes; ++lane) {
      const auto i = static_cast<std::size_t>(lane);
      if (membership_[i] == List::kNone && view.schedulable(lane) &&
          view.depth[i] > 0) {
        membership_[i] = List::kNew;
        deficit_[i] = quantum;
        new_.push_back(lane);
      }
    }

    int next_engine = 0;
    // A lane needs at most grant_cost/quantum top-ups before its deficit
    // goes positive, so this many sweeps provably either fills all K
    // engines or proves nothing more is grantable.
    const int max_sweeps = static_cast<int>(grant_cost / quantum) + 2;
    for (int sweep = 0; sweep < max_sweeps && next_engine < view.engines;
         ++sweep) {
      bool progressed = false;
      // Pops are bounded by the current list population: rotated lanes go
      // to the old-list tail, behind every lane already enqueued, so each
      // lane is visited at most once per sweep.
      std::size_t pops = new_.size() + old_.size();
      while (pops-- > 0 && next_engine < view.engines) {
        const bool from_new = !new_.empty();
        BoundedFifo<int>& list = from_new ? new_ : old_;
        if (list.empty()) break;
        const int lane = list.front();
        list.pop_front();
        const auto i = static_cast<std::size_t>(lane);
        if (!view.schedulable(lane) || view.depth[i] == 0) {
          // Emptied or frozen. A new-list lane keeps one old-list turn
          // (the FQ-CoDel anti-starvation rotation); an old-list lane
          // retires and re-enrolls as new when backlog returns.
          if (from_new) {
            membership_[i] = List::kOld;
            old_.push_back(lane);
          } else {
            membership_[i] = List::kNone;
          }
          continue;
        }
        if (granted_[i]) {
          // Already served this round — one Unit array cannot consume two
          // engines' cycles in one interval. Keep its rotation slot.
          membership_[i] = List::kOld;
          old_.push_back(lane);
          continue;
        }
        if (deficit_[i] <= 0) {
          deficit_[i] += quantum;
          membership_[i] = List::kOld;
          old_.push_back(lane);
          progressed = true;
          continue;
        }
        assignment[static_cast<std::size_t>(next_engine++)] = lane;
        granted_[i] = 1;
        deficit_[i] -= grant_cost;
        membership_[i] = List::kOld;
        old_.push_back(lane);
        progressed = true;
      }
      if (!progressed) break;
    }
  }

 private:
  enum class List : std::uint8_t { kNone, kNew, kOld };

  const double quantum_opt_;          ///< <= 0: one grant's worth per turn
  std::vector<List> membership_;      ///< which list each lane sits in
  std::vector<std::int64_t> deficit_; ///< DRR credit, Q48.16 engine cycles
  // A lane sits in at most one list at a time, so each holds <= N lanes.
  BoundedFifo<int> new_;              ///< freshly-backlogged lanes
  BoundedFifo<int> old_;              ///< rotation of established lanes
  std::vector<std::uint8_t> granted_; ///< per-round scratch
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_fq_policy(const DecoderOptions& options) {
  constexpr double kAbsent = std::numeric_limits<double>::lowest();
  double quantum = options.get_double("quantum", kAbsent);
  if (quantum == kAbsent) {
    quantum = 0.0;  // auto: one engine grant's worth of cycles
  } else if (quantum <= 0.0) {
    throw std::invalid_argument(
        "scheduler policy spec: fq quantum must be > 0 engine cycles");
  }
  return std::make_unique<FqCodelPolicy>(quantum);
}

}  // namespace qec
