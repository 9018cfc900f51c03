// Chrome-trace-event JSON export of an obs::Tracer: open the file in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing and the run
// renders as a lanes x engines timeline — pause spans, serve slices,
// push/pop/starve instants — with logical rounds on the time axis (one
// round = one "microsecond"). See docs/observability.md for the mapping
// and a walkthrough; tools/check_trace_json.py validates the output.
//
// The export is deterministic: events come from Tracer::merged() (already
// canonically ordered), every line is formatted with locale-independent
// integer formatting, and timestamps are logical rounds — so the file is
// byte-identical for any --threads value.
// One deliberate exception to determinism: pass a Profiler and the export
// gains a fourth process group, "profiler (wall clock)" (pid 4), holding
// the per-thread wall-clock stage samples. That track is real time, not
// logical rounds, and is explicitly exempt from the byte-identical
// contract (docs/observability.md) — it only exists when profiling was
// explicitly enabled.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace qec::obs {

class Profiler;

/// Escapes `text` for the inside of a JSON string literal: quote,
/// backslash, and every control byte below 0x20 (\n and \t by name, the
/// rest as \u00XX). The one string escaper of every JSON writer here.
std::string json_escape(const std::string& text);

/// Writes `tracer`'s merged events to `path` as Chrome trace JSON.
/// Unmatched pause-begin events are closed with a synthetic end at the
/// track's final timestamp so viewers never see a dangling span. A
/// `trace_ring_stats` metadata record carries the tracer's exact
/// emitted/dropped counts (check_trace_json.py keys its strictness off
/// `dropped`). When `profiler` is non-null its wall samples are appended
/// as the non-deterministic pid-4 track. Returns false when the file
/// cannot be opened or written (mirroring the telemetry CSV writers).
bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const Profiler* profiler = nullptr);

}  // namespace qec::obs
