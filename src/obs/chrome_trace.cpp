#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace qec::obs {
namespace {

/// pid per track kind: Perfetto groups tracks by process, so the export
/// shows three swim-lane groups — the scheduler, the lanes, the engines.
int track_pid(TrackKind kind) {
  switch (kind) {
    case TrackKind::kControl: return 1;
    case TrackKind::kLane: return 2;
    case TrackKind::kEngine: return 3;
  }
  return 0;
}

std::string i64(std::int64_t v) { return std::to_string(v); }
std::string u64(std::uint64_t v) { return std::to_string(v); }

const char* slo_state_arg_name(std::uint16_t arg) {
  switch (arg) {
    case kSloOk: return "ok";
    case kSloWarning: return "warning";
    case kSloPage: return "page";
  }
  return "unknown";
}

/// Microseconds with fixed 3-decimal formatting (wall-clock track only).
std::string us3(std::uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(nanos / 1000),
                static_cast<unsigned long long>(nanos % 1000));
  return buf;
}

/// Kind-specific args object (payload/arg decoded per the taxonomy).
std::string event_args(const TraceEvent& event) {
  const auto kind = static_cast<EventKind>(event.kind);
  switch (kind) {
    case EventKind::kDispatch:
      return "{\"served\": " + u64(event.payload) +
             ", \"drain\": " + std::to_string(event.arg) + "}";
    case EventKind::kPush:
      return "{\"depth\": " + u64(event.payload) +
             ", \"real\": " + std::to_string(event.arg) + "}";
    case EventKind::kOverflow:
    case EventKind::kStarve:
      return "{\"depth\": " + u64(event.payload) + "}";
    case EventKind::kSpend:
    case EventKind::kPop:
      return "{\"cycles\": " + u64(event.payload) + "}";
    case EventKind::kPause:
      return "{\"depth\": " + u64(event.payload) + ", \"law\": \"" +
             (event.arg == kPauseByCodel ? "codel" : "depth") + "\"}";
    case EventKind::kResume:
      return "{\"depth\": " + u64(event.payload) + "}";
    case EventKind::kCodelArm:
    case EventKind::kCodelDisarm:
      return "{\"sojourn\": " + u64(event.payload) + "}";
    case EventKind::kDrained:
      return "{}";
    case EventKind::kGrant:
      return "{\"lane\": " + u64(event.payload) + "}";
    case EventKind::kSloState:
      return "{\"objective\": " + u64(event.payload) + ", \"state\": \"" +
             slo_state_arg_name(event.arg) + "\"}";
  }
  return "{}";
}

/// One trace-event line. ph mapping: serve and grant are unit-duration
/// "X" slices (they occupy the round), pause/resume are a "B"/"E" span,
/// everything else is a thread-scoped instant.
std::string event_line(const MergedEvent& merged) {
  const TraceEvent& event = merged.event;
  const auto kind = static_cast<EventKind>(event.kind);
  const char* ph = "i";
  std::string extra;
  if (kind == EventKind::kSpend || kind == EventKind::kGrant) {
    ph = "X";
    extra = ", \"dur\": 1";
  } else if (kind == EventKind::kPause) {
    ph = "B";
  } else if (kind == EventKind::kResume) {
    ph = "E";
  } else {
    extra = ", \"s\": \"t\"";
  }
  std::string name = event_name(kind);
  if (kind == EventKind::kGrant) {
    name = "lane " + u64(event.payload);  // the slice label engines show
  }
  return "{\"ph\": \"" + std::string(ph) + "\", \"ts\": " + i64(event.ts) +
         ", \"pid\": " + std::to_string(track_pid(merged.track)) +
         ", \"tid\": " + std::to_string(merged.id) + ", \"name\": \"" + name +
         "\"" + extra + ", \"args\": " + event_args(event) + "}";
}

std::string metadata_line(const char* what, int pid, int tid,
                          const std::string& name) {
  return "{\"ph\": \"M\", \"ts\": 0, \"pid\": " + std::to_string(pid) +
         ", \"tid\": " + std::to_string(tid) + ", \"name\": \"" +
         std::string(what) + "\", \"args\": {\"name\": \"" + name + "\"}}";
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const Profiler* profiler) {
  std::vector<MergedEvent> events = tracer.merged();

  // Close dangling pause spans: a lane still frozen at run end has a "B"
  // with no "E", which viewers render as a span to infinity. Append a
  // synthetic close at the track's final timestamp. Ring overwrite can
  // also drop a "B" and orphan its "E" — those are left as-is (harmless
  // to viewers, flagged as a warning by check_trace_json.py).
  struct PauseState {
    int open = 0;
    std::int64_t last_ts = 0;
    std::uint32_t max_seq = 0;
  };
  std::map<int, PauseState> lanes;
  for (const MergedEvent& merged : events) {
    if (merged.track != TrackKind::kLane) continue;
    PauseState& state = lanes[merged.id];
    state.last_ts = std::max(state.last_ts, merged.event.ts);
    state.max_seq = std::max(state.max_seq, merged.event.seq);
    const auto kind = static_cast<EventKind>(merged.event.kind);
    if (kind == EventKind::kPause) {
      ++state.open;
    } else if (kind == EventKind::kResume && state.open > 0) {
      --state.open;
    }
  }
  bool appended = false;
  for (const auto& [lane, state] : lanes) {
    for (int k = 0; k < state.open; ++k) {
      MergedEvent close;
      close.track = TrackKind::kLane;
      close.id = lane;
      close.event.ts = state.last_ts;
      close.event.seq = state.max_seq + 1 + static_cast<std::uint32_t>(k);
      close.event.kind = static_cast<std::uint16_t>(EventKind::kResume);
      events.push_back(close);
      appended = true;
    }
  }
  if (appended) {
    std::stable_sort(events.begin(), events.end(),
                     [](const MergedEvent& a, const MergedEvent& b) {
                       if (a.event.ts != b.event.ts) {
                         return a.event.ts < b.event.ts;
                       }
                       if (a.track != b.track) return a.track < b.track;
                       if (a.id != b.id) return a.id < b.id;
                       return a.event.seq < b.event.seq;
                     });
  }

  FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) return false;
  bool ok = true;
  const auto put = [&](const std::string& text) {
    ok = ok && std::fputs(text.c_str(), out) >= 0;
  };

  put("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");

  // Metadata first: name the three process groups, the scheduler thread,
  // every engine, and every lane that recorded at least one event (a
  // million-lane fleet should not pay a metadata line per silent lane).
  std::vector<std::string> lines;
  lines.push_back(metadata_line("process_name", 1, 0, "service"));
  lines.push_back(metadata_line("process_name", 2, 0, "lanes"));
  lines.push_back(metadata_line("process_name", 3, 0, "engines"));
  lines.push_back(metadata_line("thread_name", 1, 0, "scheduler"));
  for (const auto& [lane, state] : lanes) {
    lines.push_back(
        metadata_line("thread_name", 2, lane, "lane " + std::to_string(lane)));
  }
  for (int e = 0; e < tracer.engines(); ++e) {
    lines.push_back(
        metadata_line("thread_name", 3, e, "engine " + std::to_string(e)));
  }
  // Exact ring accounting, as metadata so viewers ignore it:
  // check_trace_json.py escalates orphaned spans from warning to error
  // when dropped == 0 (no overwrite can excuse them).
  lines.push_back(
      "{\"ph\": \"M\", \"ts\": 0, \"pid\": 1, \"tid\": 0, \"name\": "
      "\"trace_ring_stats\", \"args\": {\"emitted\": " +
      u64(tracer.emitted()) + ", \"dropped\": " + u64(tracer.dropped()) + "}}");
  for (const MergedEvent& merged : events) lines.push_back(event_line(merged));

  // The wall-clock profiler track (pid 4): real time in microseconds, one
  // tid per registered thread, samples sorted by start so ts is monotonic
  // per thread. Explicitly non-deterministic — only present when the run
  // opted into profiling.
  if (profiler && profiler->threads() > 0) {
    lines.push_back(metadata_line("process_name", 4, 0, "profiler (wall clock)"));
    for (int t = 0; t < profiler->threads(); ++t) {
      lines.push_back(
          metadata_line("thread_name", 4, t, "thread " + std::to_string(t)));
      for (const WallSample& sample : profiler->thread_samples(t)) {
        lines.push_back("{\"ph\": \"X\", \"ts\": " + us3(sample.start_ns) +
                        ", \"pid\": 4, \"tid\": " + std::to_string(t) +
                        ", \"name\": \"" + stage_name(sample.stage) +
                        "\", \"dur\": " + us3(sample.dur_ns) +
                        ", \"args\": {\"wall_clock\": true}}");
      }
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    put(lines[i]);
    put(i + 1 < lines.size() ? ",\n" : "\n");
  }
  put("]}\n");

  ok = std::fclose(out) == 0 && ok;
  return ok;
}

}  // namespace qec::obs
