#include "stream/scheduler.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "stream/qos.hpp"

namespace qec {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("scheduler policy spec: " + what);
}

/// Engine i serves lane i every round — the pre-pool behaviour, kept as the
/// K == N special case so the refactor stays byte-identical to it.
class DedicatedPolicy final : public SchedulerPolicy {
 public:
  void validate(int lanes, int engines) const override {
    if (lanes != engines) {
      bad_spec("'dedicated' needs one engine per lane (engines == lanes); "
               "use round_robin, least_loaded, or fq for a shared pool");
    }
  }

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    for (int e = 0; e < view.engines; ++e) assignment[static_cast<std::size_t>(e)] = e;
  }
};

/// Fixed rotation: engine j serves lane (round*K + j + offset) mod N, a TDM
/// crossbar schedule that ignores lane state entirely (so it can be
/// batched). With K == N every lane is served every round — identical to
/// dedicated.
class RoundRobinPolicy final : public SchedulerPolicy {
 public:
  explicit RoundRobinPolicy(int offset) : offset_(offset) {}

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    const auto n = static_cast<std::int64_t>(view.lanes);
    // K consecutive lanes mod N are distinct whenever K <= N.
    std::int64_t base = view.round * view.engines + offset_;
    base %= n;
    if (base < 0) base += n;
    for (int e = 0; e < view.engines; ++e) {
      assignment[static_cast<std::size_t>(e)] =
          static_cast<int>((base + e) % n);
    }
  }

 private:
  int offset_ = 0;
};

/// Backpressure-aware: live lanes ranked by Reg queue depth (deepest
/// first, ties broken by lane index), top K get an engine. Reads runtime
/// queue state, so it is dynamic — one scheduling barrier per round.
class LeastLoadedPolicy final : public SchedulerPolicy {
 public:
  bool dynamic() const override { return true; }

  void assign(const ScheduleView& view,
              std::vector<int>& assignment) override {
    ranked_.clear();
    for (int lane = 0; lane < view.lanes; ++lane) {
      if (view.schedulable(lane)) ranked_.push_back(lane);
    }
    const auto takers =
        std::min<std::size_t>(ranked_.size(), static_cast<std::size_t>(view.engines));
    rank_deepest_first(ranked_, takers, view.depth);
    for (int e = 0; e < view.engines; ++e) {
      assignment[static_cast<std::size_t>(e)] =
          static_cast<std::size_t>(e) < takers ? ranked_[static_cast<std::size_t>(e)] : -1;
    }
  }

 private:
  std::vector<int> ranked_;  // scratch, reused across rounds
};

/// The closed policy set, sorted by name.
constexpr std::array<std::string_view, 4> kPolicies = {
    "dedicated", "fq", "least_loaded", "round_robin"};

}  // namespace

void rank_deepest_first(std::vector<int>& lanes, std::size_t count,
                        const int* depth) {
  std::partial_sort(lanes.begin(), lanes.begin() + static_cast<std::ptrdiff_t>(count),
                    lanes.end(), [depth](int a, int b) {
                      const int da = depth[static_cast<std::size_t>(a)];
                      const int db = depth[static_cast<std::size_t>(b)];
                      return da != db ? da > db : a < b;
                    });
}

std::unique_ptr<SchedulerPolicy> make_scheduler_policy(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  if (std::find(kPolicies.begin(), kPolicies.end(), name) == kPolicies.end()) {
    bad_spec("unknown policy '" + std::string(name) + "'");
  }
  const DecoderOptions options = DecoderOptions::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));
  std::unique_ptr<SchedulerPolicy> policy;
  if (name == "dedicated") {
    policy = std::make_unique<DedicatedPolicy>();
  } else if (name == "round_robin") {
    policy = std::make_unique<RoundRobinPolicy>(options.get_int("offset", 0));
  } else if (name == "least_loaded") {
    policy = std::make_unique<LeastLoadedPolicy>();
  } else {
    policy = make_fq_policy(options);  // stream/qos.cpp (DRR over new/old lists)
  }
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("policy '" + std::string(name) + "' does not understand " +
             DecoderOptions::join_keys(leftover));
  }
  return policy;
}

std::vector<std::string> registered_scheduler_policies() {
  return {kPolicies.begin(), kPolicies.end()};
}

}  // namespace qec
