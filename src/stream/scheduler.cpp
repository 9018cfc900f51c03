#include "stream/scheduler.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

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
    std::partial_sort(ranked_.begin(), ranked_.begin() + static_cast<std::ptrdiff_t>(takers),
                      ranked_.end(), [&view](int a, int b) {
                        const int da = view.depth[static_cast<std::size_t>(a)];
                        const int db = view.depth[static_cast<std::size_t>(b)];
                        return da != db ? da > db : a < b;
                      });
    for (int e = 0; e < view.engines; ++e) {
      assignment[static_cast<std::size_t>(e)] =
          static_cast<std::size_t>(e) < takers ? ranked_[static_cast<std::size_t>(e)] : -1;
    }
  }

 private:
  std::vector<int> ranked_;  // scratch, reused across rounds
};

struct PolicyRegistry {
  std::mutex mutex;
  std::map<std::string, SchedulerPolicyFactory, std::less<>> factories;
};

std::map<std::string, SchedulerPolicyFactory, std::less<>> builtin_policies() {
  std::map<std::string, SchedulerPolicyFactory, std::less<>> factories;
  factories["dedicated"] = [](const DecoderOptions&) {
    return std::make_unique<DedicatedPolicy>();
  };
  factories["round_robin"] = [](const DecoderOptions& options) {
    return std::make_unique<RoundRobinPolicy>(options.get_int("offset", 0));
  };
  factories["least_loaded"] = [](const DecoderOptions&) {
    return std::make_unique<LeastLoadedPolicy>();
  };
  factories["fq"] = [](const DecoderOptions& options) {
    return make_fq_policy(options);  // stream/qos.cpp (DRR over new/old lists)
  };
  return factories;
}

PolicyRegistry& policy_registry() {
  static PolicyRegistry instance{{}, builtin_policies()};
  return instance;
}

}  // namespace

void SchedulerPolicy::validate(int lanes, int engines) const {
  if (engines < 1 || engines > lanes) {
    bad_spec("engines must be in [1, lanes]");
  }
}

void register_scheduler_policy(const std::string& name,
                               SchedulerPolicyFactory factory) {
  PolicyRegistry& r = policy_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<SchedulerPolicy> make_scheduler_policy(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  SchedulerPolicyFactory factory;
  {
    PolicyRegistry& r = policy_registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      bad_spec("unknown policy '" + std::string(name) + "'");
    }
    factory = it->second;
  }
  const DecoderOptions options = DecoderOptions::parse(
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1));
  auto policy = factory(options);
  if (!policy) bad_spec("factory for '" + std::string(name) + "' failed");
  if (const auto leftover = options.unconsumed(); !leftover.empty()) {
    bad_spec("policy '" + std::string(name) + "' does not understand " +
             DecoderOptions::join_keys(leftover));
  }
  return policy;
}

std::vector<std::string> registered_scheduler_policies() {
  PolicyRegistry& r = policy_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;
}

}  // namespace qec
