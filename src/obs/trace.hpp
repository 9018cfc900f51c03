// Deterministic event tracing for the streaming decode service: the
// observability layer the windowed-telemetry and open-system work hangs
// off (ROADMAP). Every interesting moment of a run — scheduler dispatch,
// layer push/pop, engine grant spend, admission pause/resume, CoDel
// arm/disarm, overflow, drain — is recorded as a fixed-size binary event
// on a per-track ring buffer, merged in deterministic order at flush, and
// exported as Chrome-trace-event JSON (src/obs/chrome_trace.hpp) so any
// run opens in Perfetto / chrome://tracing as a lanes x engines timeline.
//
// Determinism contract (the whole point): timestamps are *logical rounds*,
// never wall clock, and every track has exactly one writer —
//
//  - lane tracks are written only inside the lane-parallel region, by
//    whichever worker owns that lane for the dispatch (parallel_for calls
//    each lane index exactly once per dispatch, and dispatches are
//    separated by joins, so ring writes are single-writer by construction
//    — lock-free without a single atomic);
//  - the control track and the engine tracks are written only on the
//    scheduling thread, in the fixed reduction order.
//
// A lane's event stream is therefore a pure function of (trace, config
// minus threads), and the merged export is byte-identical at any thread
// count — the same contract every telemetry CSV already honours.
//
// Ring semantics: fixed capacity per track, overwrite-oldest (the classic
// flight-recorder trace ring — a bounded run keeps everything, an
// over-long one keeps the end), with an exact dropped-event counter. A
// disabled tracer costs the hooks one branch each (a null pointer test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qec::obs {

/// What happened. Payload/arg meaning is per-kind (see event_name and
/// docs/observability.md for the taxonomy).
enum class EventKind : std::uint16_t {
  kDispatch = 0,  ///< control: round scheduled; payload = engines that served
  kPush,          ///< lane: layer accepted; payload = post-push depth, arg = real
  kOverflow,      ///< lane: push into a full Reg — terminal; payload = depth
  kSpend,         ///< lane: engine grant consumed; payload = cycles
  kPop,           ///< lane: engine fully decoded a layer; payload = layer cycles
  kStarve,        ///< lane: backlogged and denied an engine; payload = depth
  kPause,         ///< lane: admission froze the clock; payload = depth, arg = law
  kResume,        ///< lane: admission re-admitted; payload = depth
  kCodelArm,      ///< lane: CoDel deadline armed; payload = head sojourn
  kCodelDisarm,   ///< lane: sojourn dipped below target before the deadline
  kDrained,       ///< lane: backlog fully consumed (operational success)
  kGrant,         ///< engine: grant consumed by a lane; payload = lane
  kSloState,      ///< control: SLO burn-rate state at a window close;
                  ///< payload = objective index, arg = 0 ok / 1 warning / 2 page
};

/// kSloState `arg` values: the objective's burn-rate state.
inline constexpr std::uint16_t kSloOk = 0;
inline constexpr std::uint16_t kSloWarning = 1;
inline constexpr std::uint16_t kSloPage = 2;

/// kPause `arg` values: which law froze the lane.
inline constexpr std::uint16_t kPauseByDepth = 0;
inline constexpr std::uint16_t kPauseByCodel = 1;

/// Stable lowercase name of an event kind (trace JSON, goldens, logs).
const char* event_name(EventKind kind);

/// One fixed-size binary trace record. The track (lane / engine / control)
/// is a property of the ring the event lives in, not of the event, so the
/// record stays at 24 bytes.
struct TraceEvent {
  std::int64_t ts = 0;        ///< logical round (never wall clock)
  std::uint64_t payload = 0;  ///< kind-specific (depth, cycles, lane, ...)
  std::uint32_t seq = 0;      ///< per-track emission index (gap = drops)
  std::uint16_t kind = 0;     ///< EventKind
  std::uint16_t arg = 0;      ///< kind-specific small argument
};

/// Fixed-capacity single-writer event ring: overwrite-oldest with exact
/// drop accounting. Storage grows lazily up to `capacity`, so a fleet of
/// mostly-quiet tracks costs what it records, not what it could record.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void emit(std::int64_t ts, EventKind kind, std::uint64_t payload,
            std::uint16_t arg) {
    TraceEvent event;
    event.ts = ts;
    event.payload = payload;
    event.seq = seq_++;
    event.kind = static_cast<std::uint16_t>(kind);
    event.arg = arg;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else if (capacity_ > 0) {
      ring_[head_] = event;  // overwrite the oldest survivor
      if (++head_ == capacity_) head_ = 0;
      ++dropped_;
    } else {
      ++dropped_;
    }
  }

  std::uint64_t emitted() const { return seq_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return ring_.size(); }

  /// Calls f(event) for every surviving event in emission order (oldest
  /// survivor first).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = head_; i < ring_.size(); ++i) f(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) f(ring_[i]);
  }

  /// Surviving events in emission order (oldest survivor first).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for_each([&out](const TraceEvent& event) { out.push_back(event); });
    return out;
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< index of the oldest survivor once full
  std::vector<TraceEvent> ring_;
  std::uint32_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

enum class TrackKind : std::uint8_t { kControl = 0, kLane = 1, kEngine = 2 };

/// One event track (control, one lane, or one engine): a ring plus the
/// track's current logical round. The writer sets the round once per
/// dispatch (set_round) and emits against it, so deep hooks — the engine
/// pop path — need no round plumbing; scheduling-thread hooks that know
/// the round emit_at() it directly.
class Track {
 public:
  Track(TrackKind kind, int id, std::size_t capacity)
      : ring_(capacity), kind_(kind), id_(id) {}

  void set_round(std::int64_t round) { round_ = round; }
  std::int64_t round() const { return round_; }

  void emit(EventKind kind, std::uint64_t payload = 0, std::uint16_t arg = 0) {
    ring_.emit(round_, kind, payload, arg);
  }
  void emit_at(std::int64_t ts, EventKind kind, std::uint64_t payload = 0,
               std::uint16_t arg = 0) {
    ring_.emit(ts, kind, payload, arg);
  }

  TrackKind kind() const { return kind_; }
  int id() const { return id_; }
  const TraceRing& ring() const { return ring_; }

 private:
  TraceRing ring_;
  std::int64_t round_ = 0;
  TrackKind kind_;
  int id_ = 0;
};

/// A trace event joined with its track, the unit of the merged export.
struct MergedEvent {
  TrackKind track = TrackKind::kControl;
  int id = 0;
  TraceEvent event;
};

/// The per-run tracer: one control track, one track per lane, one per
/// engine. merged() flattens every ring into the canonical deterministic
/// order — (ts, control < lanes < engines, track id, per-track seq) — the
/// order the Chrome export and the golden tests pin.
class Tracer {
 public:
  Tracer(int lanes, int engines, std::size_t ring_capacity);

  Track& control() { return control_; }
  Track& lane(int i) { return lanes_[static_cast<std::size_t>(i)]; }
  Track& engine(int e) { return engines_[static_cast<std::size_t>(e)]; }
  const Track& control() const { return control_; }
  const Track& lane(int i) const { return lanes_[static_cast<std::size_t>(i)]; }
  const Track& engine(int e) const {
    return engines_[static_cast<std::size_t>(e)];
  }

  int lanes() const { return static_cast<int>(lanes_.size()); }
  int engines() const { return static_cast<int>(engines_.size()); }

  /// Total events emitted / overwritten-on-ring-full across all tracks.
  std::uint64_t emitted() const;
  std::uint64_t dropped() const;

  /// Every surviving event, sorted by (ts, track kind, track id, seq).
  std::vector<MergedEvent> merged() const;

 private:
  Track control_;
  std::vector<Track> lanes_;
  std::vector<Track> engines_;
};

}  // namespace qec::obs
