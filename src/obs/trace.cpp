#include "obs/trace.hpp"

#include <algorithm>
#include <limits>

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
  // Canonical order: time first, then control < lanes < engines, then
  // track id, then per-track emission order. Visiting the tracks in that
  // (kind, id) order, each ring oldest first, lists the events in
  // (kind, id, seq) order, so a stable placement by ts alone yields the
  // canonical order: a merge of the tracks by round. Stable across thread
  // counts because every ring's content already is.
  const auto for_each_event = [this](auto&& f) {
    const auto visit = [&f](const Track& track) {
      track.ring().for_each(
          [&](const TraceEvent& event) { f(track, event); });
    };
    visit(control_);
    for (const auto& t : lanes_) visit(t);
    for (const auto& t : engines_) visit(t);
  };
  std::size_t total = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for_each_event([&](const Track&, const TraceEvent& event) {
    lo = std::min(lo, event.ts);
    hi = std::max(hi, event.ts);
    ++total;
  });
  if (total == 0) return {};
  std::vector<MergedEvent> out(total);
  // Logical rounds are dense, so one counting pass over the ts span
  // places every event; a span far wider than the event count (never
  // produced by the service) falls back to a stable sort by ts.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span <= 2 * total + 1024) {
    std::vector<std::size_t> next(static_cast<std::size_t>(span) + 2, 0);
    for_each_event([&](const Track&, const TraceEvent& event) {
      ++next[static_cast<std::size_t>(event.ts - lo) + 1];
    });
    for (std::size_t i = 1; i < next.size(); ++i) next[i] += next[i - 1];
    for_each_event([&](const Track& track, const TraceEvent& event) {
      out[next[static_cast<std::size_t>(event.ts - lo)]++] = {
          track.kind(), track.id(), event};
    });
  } else {
    std::size_t i = 0;
    for_each_event([&](const Track& track, const TraceEvent& event) {
      out[i++] = {track.kind(), track.id(), event};
    });
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedEvent& a, const MergedEvent& b) {
                       return a.event.ts < b.event.ts;
                     });
  }
  return out;
}

}  // namespace qec::obs
