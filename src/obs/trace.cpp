#include "obs/trace.hpp"

#include <algorithm>

namespace qec::obs {

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kPush: return "push";
    case EventKind::kOverflow: return "overflow";
    case EventKind::kSpend: return "serve";
    case EventKind::kPop: return "pop";
    case EventKind::kStarve: return "starve";
    case EventKind::kPause: return "paused";
    case EventKind::kResume: return "paused";  // closes the kPause span
    case EventKind::kCodelArm: return "codel_arm";
    case EventKind::kCodelDisarm: return "codel_disarm";
    case EventKind::kDrained: return "drained";
    case EventKind::kGrant: return "grant";
    case EventKind::kSloState: return "slo";
  }
  return "unknown";
}

Tracer::Tracer(int lanes, int engines, std::size_t ring_capacity)
    : control_(TrackKind::kControl, 0, ring_capacity) {
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    lanes_.emplace_back(TrackKind::kLane, i, ring_capacity);
  }
  engines_.reserve(static_cast<std::size_t>(engines));
  for (int e = 0; e < engines; ++e) {
    engines_.emplace_back(TrackKind::kEngine, e, ring_capacity);
  }
}

std::uint64_t Tracer::emitted() const {
  std::uint64_t total = control_.ring().emitted();
  for (const auto& t : lanes_) total += t.ring().emitted();
  for (const auto& t : engines_) total += t.ring().emitted();
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = control_.ring().dropped();
  for (const auto& t : lanes_) total += t.ring().dropped();
  for (const auto& t : engines_) total += t.ring().dropped();
  return total;
}

std::vector<MergedEvent> Tracer::merged() const {
  std::vector<MergedEvent> out;
  std::size_t total = control_.ring().size();
  for (const auto& t : lanes_) total += t.ring().size();
  for (const auto& t : engines_) total += t.ring().size();
  out.reserve(total);

  const auto append = [&out](const Track& track) {
    for (const TraceEvent& event : track.ring().events()) {
      out.push_back({track.kind(), track.id(), event});
    }
  };
  append(control_);
  for (const auto& t : lanes_) append(t);
  for (const auto& t : engines_) append(t);

  // Canonical order: time first, then control < lanes < engines, then
  // track id, then per-track emission order. Stable across thread counts
  // because every ring's content already is.
  std::stable_sort(out.begin(), out.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.event.ts != b.event.ts) return a.event.ts < b.event.ts;
                     if (a.track != b.track) return a.track < b.track;
                     if (a.id != b.id) return a.id < b.id;
                     return a.event.seq < b.event.seq;
                   });
  return out;
}

}  // namespace qec::obs
