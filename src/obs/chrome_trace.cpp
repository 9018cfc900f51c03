#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
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

const char* slo_state_arg_name(std::uint16_t arg) {
  switch (arg) {
    case kSloOk: return "ok";
    case kSloWarning: return "warning";
    case kSloPage: return "page";
  }
  return "unknown";
}

/// The export's output buffer: text and integers (std::to_chars, locale
/// independent) are copied into one fixed 1 MiB chunk, which goes to the
/// file whenever the next piece would not fit — so a trace of any length
/// costs one chunk of memory and no per-event string temporaries.
class JsonOut {
 public:
  explicit JsonOut(FILE* file)
      : file_(file), chunk_(new char[kChunk]), pos_(chunk_.get()) {}

  JsonOut& operator<<(std::string_view text) {
    return put(text.data(), text.size());
  }
  template <std::integral T>
  JsonOut& operator<<(T value) {
    room(kMaxDigits);
    pos_ = std::to_chars(pos_, pos_ + kMaxDigits, value).ptr;
    return *this;
  }

  /// Microseconds with fixed 3-decimal formatting (wall-clock track only).
  JsonOut& us3(std::uint64_t nanos) {
    const auto frac = static_cast<unsigned>(nanos % 1000);
    const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                           static_cast<char>('0' + frac / 10 % 10),
                           static_cast<char>('0' + frac % 10)};
    *this << nanos / 1000;
    return put(digits, sizeof digits);
  }

  /// Starts a trace-event line: the ",\n" separator goes before every
  /// line but the first, so the last needs no lookahead.
  JsonOut& next_line() {
    if (lines_++ > 0) *this << ",\n";
    return *this;
  }

  /// Writes out what is buffered; false once any write has failed.
  bool flush() {
    const auto size = static_cast<std::size_t>(pos_ - chunk_.get());
    ok_ = ok_ && std::fwrite(chunk_.get(), 1, size, file_) == size;
    pos_ = chunk_.get();
    return ok_;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;
  static constexpr std::size_t kMaxDigits = 20;  ///< a 64-bit integer

  /// Flushes unless `n` more bytes fit in the chunk.
  void room(std::size_t n) {
    if (static_cast<std::size_t>(chunk_.get() + kChunk - pos_) < n) flush();
  }
  JsonOut& put(const char* text, std::size_t n) {
    room(n);
    if (n > kChunk) {  // larger than a chunk: straight to the file
      ok_ = ok_ && std::fwrite(text, 1, n, file_) == n;
      return *this;
    }
    std::memcpy(pos_, text, n);
    pos_ += n;
    return *this;
  }

  FILE* file_;
  std::unique_ptr<char[]> chunk_;
  char* pos_;
  std::size_t lines_ = 0;
  bool ok_ = true;
};

/// Kind-specific args object (payload/arg decoded per the taxonomy).
void write_args(JsonOut& out, const TraceEvent& event) {
  const auto kind = static_cast<EventKind>(event.kind);
  switch (kind) {
    case EventKind::kDispatch:
      out << "{\"served\": " << event.payload << ", \"drain\": " << event.arg
          << "}";
      return;
    case EventKind::kPush:
      out << "{\"depth\": " << event.payload << ", \"real\": " << event.arg
          << "}";
      return;
    case EventKind::kOverflow:
    case EventKind::kStarve:
    case EventKind::kResume:
      out << "{\"depth\": " << event.payload << "}";
      return;
    case EventKind::kSpend:
    case EventKind::kPop:
      out << "{\"cycles\": " << event.payload << "}";
      return;
    case EventKind::kPause:
      out << "{\"depth\": " << event.payload << ", \"law\": \""
          << (event.arg == kPauseByCodel ? "codel" : "depth") << "\"}";
      return;
    case EventKind::kCodelArm:
    case EventKind::kCodelDisarm:
      out << "{\"sojourn\": " << event.payload << "}";
      return;
    case EventKind::kDrained:
      break;
    case EventKind::kGrant:
      out << "{\"lane\": " << event.payload << "}";
      return;
    case EventKind::kSloState:
      out << "{\"objective\": " << event.payload << ", \"state\": \""
          << slo_state_arg_name(event.arg) << "\"}";
      return;
  }
  out << "{}";
}

/// One trace-event line. ph mapping: serve and grant are unit-duration
/// "X" slices (they occupy the round), pause/resume are a "B"/"E" span,
/// everything else is a thread-scoped instant.
void write_event(JsonOut& out, const MergedEvent& merged) {
  const TraceEvent& event = merged.event;
  const auto kind = static_cast<EventKind>(event.kind);
  const char* ph = "i";
  const char* extra = ", \"s\": \"t\"";
  if (kind == EventKind::kSpend || kind == EventKind::kGrant) {
    ph = "X";
    extra = ", \"dur\": 1";
  } else if (kind == EventKind::kPause) {
    ph = "B";
    extra = "";
  } else if (kind == EventKind::kResume) {
    ph = "E";
    extra = "";
  }
  out.next_line() << "{\"ph\": \"" << ph << "\", \"ts\": " << event.ts
                  << ", \"pid\": " << track_pid(merged.track)
                  << ", \"tid\": " << merged.id << ", \"name\": \"";
  if (kind == EventKind::kGrant) {
    out << "lane " << event.payload;  // the slice label engines show
  } else {
    out << event_name(kind);
  }
  out << "\"" << extra << ", \"args\": ";
  write_args(out, event);
  out << "}";
}

/// A metadata line naming a process or thread: `label`, then ` id` when
/// `id` is not negative.
void write_metadata(JsonOut& out, const char* what, int pid, int tid,
                    std::string_view label, int id = -1) {
  out.next_line() << "{\"ph\": \"M\", \"ts\": 0, \"pid\": " << pid
                  << ", \"tid\": " << tid << ", \"name\": \"" << what
                  << "\", \"args\": {\"name\": \"" << label;
  if (id >= 0) out << " " << id;
  out << "\"}}";
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
    bool seen = false;  ///< the lane recorded at least one event
    int open = 0;
    std::int64_t last_ts = 0;
    std::uint32_t max_seq = 0;
  };
  std::vector<PauseState> lanes(static_cast<std::size_t>(tracer.lanes()));
  for (const MergedEvent& merged : events) {
    if (merged.track != TrackKind::kLane) continue;
    PauseState& state = lanes[static_cast<std::size_t>(merged.id)];
    state.seen = true;
    state.last_ts = std::max(state.last_ts, merged.event.ts);
    state.max_seq = std::max(state.max_seq, merged.event.seq);
    const auto kind = static_cast<EventKind>(merged.event.kind);
    if (kind == EventKind::kPause) {
      ++state.open;
    } else if (kind == EventKind::kResume && state.open > 0) {
      --state.open;
    }
  }
  const std::size_t merged_end = events.size();
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const PauseState& state = lanes[lane];
    for (int k = 0; k < state.open; ++k) {
      MergedEvent close;
      close.track = TrackKind::kLane;
      close.id = static_cast<int>(lane);
      close.event.ts = state.last_ts;
      close.event.seq = state.max_seq + 1 + static_cast<std::uint32_t>(k);
      close.event.kind = static_cast<std::uint16_t>(EventKind::kResume);
      events.push_back(close);
    }
  }
  // The few closes sort among themselves and merge into the canonically
  // ordered events — the order a full re-sort would give, since no two
  // events share a (ts, track, id, seq) key.
  const auto canonical = [](const MergedEvent& a, const MergedEvent& b) {
    if (a.event.ts != b.event.ts) return a.event.ts < b.event.ts;
    if (a.track != b.track) return a.track < b.track;
    if (a.id != b.id) return a.id < b.id;
    return a.event.seq < b.event.seq;
  };
  const auto closes = events.begin() + static_cast<std::ptrdiff_t>(merged_end);
  std::sort(closes, events.end(), canonical);
  std::inplace_merge(events.begin(), closes, events.end(), canonical);

  FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) return false;
  JsonOut out(file);
  out << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";

  // Metadata first: name the three process groups, the scheduler thread,
  // every engine, and every lane that recorded at least one event (a
  // million-lane fleet should not pay a metadata line per silent lane).
  write_metadata(out, "process_name", 1, 0, "service");
  write_metadata(out, "process_name", 2, 0, "lanes");
  write_metadata(out, "process_name", 3, 0, "engines");
  write_metadata(out, "thread_name", 1, 0, "scheduler");
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const int id = static_cast<int>(lane);
    if (lanes[lane].seen) write_metadata(out, "thread_name", 2, id, "lane", id);
  }
  for (int e = 0; e < tracer.engines(); ++e) {
    write_metadata(out, "thread_name", 3, e, "engine", e);
  }
  // Exact ring accounting, as metadata so viewers ignore it:
  // check_trace_json.py escalates orphaned spans from warning to error
  // when dropped == 0 (no overwrite can excuse them).
  out.next_line() << "{\"ph\": \"M\", \"ts\": 0, \"pid\": 1, \"tid\": 0, "
                     "\"name\": \"trace_ring_stats\", \"args\": {\"emitted\": "
                  << tracer.emitted() << ", \"dropped\": " << tracer.dropped()
                  << "}}";
  for (const MergedEvent& merged : events) write_event(out, merged);

  // The wall-clock profiler track (pid 4): real time in microseconds, one
  // tid per registered thread, samples sorted by start so ts is monotonic
  // per thread. Explicitly non-deterministic — only present when the run
  // opted into profiling.
  if (profiler && profiler->threads() > 0) {
    write_metadata(out, "process_name", 4, 0, "profiler (wall clock)");
    for (int t = 0; t < profiler->threads(); ++t) {
      write_metadata(out, "thread_name", 4, t, "thread", t);
      for (const WallSample& sample : profiler->thread_samples(t)) {
        out.next_line() << "{\"ph\": \"X\", \"ts\": ";
        out.us3(sample.start_ns) << ", \"pid\": 4, \"tid\": " << t
                                 << ", \"name\": \"" << stage_name(sample.stage)
                                 << "\", \"dur\": ";
        out.us3(sample.dur_ns) << ", \"args\": {\"wall_clock\": true}}";
      }
    }
  }
  out << "\n]}\n";

  const bool ok = out.flush();
  return std::fclose(file) == 0 && ok;
}

}  // namespace qec::obs
