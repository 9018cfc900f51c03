// Lane-to-engine scheduling for the shared decoder-engine pool: K decoder
// engines (K <= N) serve N logical-qubit lanes, and each round a
// SchedulerPolicy decides which lanes receive an engine's worth of decode
// cycles. This converts the streaming service's hard-coded one-engine-per-
// lane assumption into the "how much decode hardware per chip" question the
// ROADMAP poses (src/sfq/fabric.hpp asks it in the power domain).
//
// Policies are constructed from specs parsed exactly like decoder specs
// ("name" or "name:key=value,..."), through the same DecoderOptions
// machinery — unknown names and unknown options throw before any lane
// exists. The set is closed:
//   dedicated    engine i serves lane i every round; requires K == N and
//                reproduces the pre-pool service byte for byte.
//   round_robin  fixed rotation: engine j serves lane (round*K + j + offset)
//                mod N, regardless of lane state (a TDM crossbar schedule).
//                Option: offset (int, default 0).
//   least_loaded lanes ranked by Reg queue depth (deepest first, ties by
//                lane index); the K top-ranked live lanes are served. The
//                name is the engine's view — a free engine grabs the most
//                backed-up lane, i.e. work goes where load is highest.
//   fq           FQ-CoDel-style fair scheduler: deficit-round-robin over
//                new/old lane lists with a configurable quantum of engine
//                cycles per turn (option: quantum, default one grant's
//                worth). Freshly-bursting lanes are served once with
//                priority, then rotate into the old list. Implemented in
//                stream/qos.cpp (make_fq_policy).
//
// Determinism contract: assign() is called once per round on the scheduling
// thread, in round order, and must be a pure function of (view, options,
// rounds seen so far). dynamic() policies read runtime lane state and force
// a scheduling barrier every round. Static policies are pure functions of
// (round, lane): engine_for() gives one lane's grant, so the service
// computes grants in the lane blocks and runs static pools in windows of
// many rounds, with no serial assign (see DESIGN.md section 8.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "decoder/registry.hpp"

namespace qec {

/// What a policy sees when assigning engines for one round: per-lane Reg
/// queue depths and liveness, sampled before the round's layer lands.
struct ScheduleView {
  std::int64_t round = 0;  ///< global round index (streaming + drain)
  int lanes = 0;
  int engines = 0;
  /// Stored Reg layers per lane at the start of the round (size lanes).
  const int* depth = nullptr;
  /// Lane overflowed or drained — serving it wastes the engine (size lanes).
  const std::uint8_t* finished = nullptr;
  /// Lane paused by admission control (size lanes): its clock is frozen,
  /// so policies must not spend an engine on it; the service grants the
  /// engines a policy leaves idle to paused lanes. Null: none is paused.
  const std::uint8_t* paused = nullptr;

  /// Decode cycles one engine grant delivers this round
  /// (StreamConfig::cycles_per_round; <= 0 = unconstrained). Quantum-based
  /// policies (fq) charge this against a lane's DRR deficit.
  double grant_cycles = 0.0;

  /// True when the lane can usefully be scheduled this round: it is
  /// neither finished nor paused by admission control.
  bool schedulable(int lane) const {
    const auto i = static_cast<std::size_t>(lane);
    return !finished[i] && !(paused && paused[i]);
  }
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// True when assignments depend on runtime lane state (queue depths),
  /// forcing a scheduling barrier every round. Static policies — pure
  /// functions of the round index — may be batched.
  virtual bool dynamic() const { return false; }

  /// Called once before the run, after resolve_stream checked
  /// 1 <= engines <= lanes; throw std::invalid_argument for pool shapes
  /// the policy cannot serve (dedicated requires engines == lanes).
  virtual void validate(int /*lanes*/, int /*engines*/) const {}

  /// Fills assignment[e] (size view.engines) with the lane engine e serves
  /// this round, or -1 to leave it idle. A lane may appear at most once —
  /// one Unit array cannot consume two engines' cycles in one interval.
  virtual void assign(const ScheduleView& view,
                      std::vector<int>& assignment) = 0;

  /// Static policies only: the engine serving `lane` in global round
  /// `round` of a pool of `engines` engines over `lanes` lanes, or -1 for
  /// none — the inverse of assign() for that round, computed per lane.
  /// Dynamic policies have no such function and throw std::logic_error.
  virtual int engine_for(std::int64_t round, int lane, int lanes,
                         int engines) const;
};

/// Orders the first `count` entries of `lanes` deepest first by
/// depth[lane], ties by lane index; the rest stay unordered. The one
/// ranking rule least_loaded and admission drain grants share, so their
/// deterministic tie-break lives in one place.
void rank_deepest_first(std::vector<int>& lanes, std::size_t count,
                        const int* depth);

/// Constructs a policy from a spec ("name" or "name:k=v,..."). Throws
/// std::invalid_argument for unknown names, malformed option lists, or
/// options the named policy does not understand.
std::unique_ptr<SchedulerPolicy> make_scheduler_policy(std::string_view spec);

/// Sorted names of the built-in policies.
std::vector<std::string> registered_scheduler_policies();

}  // namespace qec
