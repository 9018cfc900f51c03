// Streaming decode service: drives many logical-qubit lanes through a
// shared pool of K on-line QECOOL engines (K <= N lanes), the fleet-scale
// version of the single-trial run_online() loop. It asks the question
// behind the paper's power budget in the time domain: how much decode
// hardware does a processor's worth of syndrome streams need?
//
// Three pieces, one concern each (DESIGN.md sections 7, 8 and 12):
//  - Lane (stream/lane.hpp), the per-lane step. Each round a lane takes
//    its admission step (stream/admission.hpp: overflow, pause or codel),
//    then pushes its arriving difference layer and spends an engine grant
//    if it has one; each step returns a small record.
//  - The pool scheduler. A SchedulerPolicy (stream/scheduler.hpp) grants
//    up to K lanes an engine per round; ungranted lanes carry the deficit
//    as Reg queue depth. Lanes run in blocks over the thread-pool executor
//    and each block folds its lanes' records into its own tally.
//  - The stream observer: the one owner of the tracer, metrics registry,
//    profiler, SLO engine and postmortem flight recorder.
// budget_w caps K through the ERSFQ power model (PoolPowerModel).
//
// Determinism contract: lanes write only lane-local state and their
// block's slots, and the blocks' tallies are merged on the calling thread
// in block and round order. Every outcome and telemetry CSV, byte for
// byte, is a pure function of (trace, StreamConfig minus threads).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "qecool/config.hpp"
#include "stream/admission.hpp"
#include "stream/scheduler.hpp"
#include "stream/telemetry.hpp"
#include "stream/trace.hpp"

namespace qec {

/// Observability switches riding StreamConfig (src/obs, DESIGN.md
/// section 12), all off by default; a sink that is off costs one branch
/// per observer hook. Event timestamps are logical rounds, so the trace
/// and the metrics CSV are byte-identical at any thread count.
struct StreamObsConfig {
  /// Record the per-track event trace (StreamOutcome::tracer).
  bool trace = false;
  /// Per-track ring capacity in events (>= 1); the ring is a flight
  /// recorder — once full the oldest events are overwritten and counted
  /// as dropped.
  int trace_ring = 1 << 14;
  /// Maintain the windowed metrics registry (StreamOutcome::metrics).
  bool metrics = false;
  /// Rounds per metrics window (>= 1; counters are window deltas, gauges
  /// are sampled at window close, histograms reset per window).
  int metrics_window = 64;
  /// Wall-clock self-profiling (obs/profile.hpp, StreamOutcome::profiler):
  /// the one obs feature outside the determinism contract. Its CSV, prof_*
  /// metrics columns and Chrome-trace wall-clock track measure real time;
  /// outcomes never consult it.
  bool profile = false;
  /// SLO spec (obs/slo.hpp), e.g. "sojourn_p99<8,window=256". Non-empty
  /// implies a metrics registry; its `window=` overrides metrics_window.
  std::string slo;
  /// Postmortem bundle directory (obs/postmortem.hpp). Non-empty arms the
  /// FlightRecorder with this run's obs objects; SIGUSR1 (when the bench
  /// installed handlers) or FlightRecorder::dump() writes the bundle.
  std::string dump_dir;
};

struct StreamConfig {
  int lanes = 8;        ///< concurrent logical-qubit streams
  int distance = 5;
  double p = 0.01;      ///< p_data = p_meas (the paper's setting)
  int rounds = 0;       ///< noisy rounds per lane; 0 means `distance`
  std::uint64_t seed = 2021;

  /// Lane engine spec, resolved via online_engine_config() — e.g.
  /// "qecool" or "qecool:reg_depth=4,thv=3".
  std::string engine = "qecool";

  /// Decoder cycles granted per measurement interval (fractional budgets
  /// accumulate; 0 = unconstrained, < 0 is rejected). See
  /// cycles_per_microsecond().
  double cycles_per_round = 0.0;

  /// Clean rounds pushed after the trace ends before giving up on a lane
  /// (>= 0).
  int max_drain_rounds = 1000;

  /// Decoder engines in the shared pool (K); 0 means one per lane
  /// (K == N), and a negative K is rejected. Must end up in [1, lanes].
  int engines = 0;

  /// Lane-to-engine scheduling policy spec (make_scheduler_policy):
  /// "dedicated", "round_robin[:offset=O]", "least_loaded" or
  /// "fq[:quantum=Q]" (stream/qos.hpp).
  std::string policy = "dedicated";

  /// Ignored: the service picks its own dispatch size (a fixed window for
  /// static pools, one round otherwise; DESIGN.md section 8.3). Kept only
  /// until the benchmark stops setting it.
  int rounds_per_dispatch = 1;

  /// Admission control spec (parse_admission_spec): "overflow" (a full
  /// Reg queue kills the lane), "pause[:high=H,low=L]" (freeze the lane's
  /// logical clock at the depth high-water mark) or
  /// "codel[:target=T,interval=I]" (freeze on sustained sojourn latency).
  std::string admission = "overflow";

  /// 4-K-stage power budget in watts; > 0 caps the pool at the largest K
  /// whose modelled ERSFQ dissipation fits (PoolPowerModel). Must be
  /// finite and needs a positive cycles_per_round (the clock sets the
  /// watts); throws when not even one engine fits. <= 0 leaves K uncapped.
  double budget_w = 0.0;

  /// Worker threads (<= 0: all hardware threads). Never changes results.
  int threads = 1;

  StreamObsConfig obs;
};

struct StreamOutcome {
  StreamTelemetry telemetry;
  int lanes = 0;
  int overflow_lanes = 0;
  int drained_lanes = 0;
  int logical_failures = 0;  ///< among operationally successful lanes
  int failed_lanes = 0;      ///< overflow + undrained + logical

  /// The run's obs sinks, each null unless its switch (ResolvedStream) is
  /// on: the event timeline (obs::write_chrome_trace), the closed metrics
  /// windows (MetricsRegistry::write_csv), the wall-clock stage totals
  /// (non-deterministic) and the SLO verdicts (SloEngine::write_csv).
  std::shared_ptr<obs::Tracer> tracer;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::Profiler> profiler;
  std::shared_ptr<obs::SloEngine> slo;
};

/// What run_stream derives from a StreamConfig before any lane exists.
struct ResolvedStream {
  QecoolConfig engine;
  std::unique_ptr<SchedulerPolicy> policy;  ///< validated for (lanes, engines)
  AdmissionConfig admission;                ///< resolved against reg_depth
  int engines = 0;       ///< K after the one-per-lane default and budget_w cap
  double freq_hz = 0.0;  ///< decoder clock; 0 = unconstrained
  double watts = 0.0;    ///< modelled pool dissipation; 0 when unclocked
  bool trace = false;    ///< obs.trace, or implied by dump_dir
  bool metrics = false;  ///< obs.metrics, or implied by dump_dir or slo
  int metrics_window = 0;             ///< the SLO's window= wins over obs's
  std::optional<obs::SloConfig> slo;  ///< parsed obs.slo, when set
};

/// Resolves `config` for a trace of `lanes` lanes at code distance
/// `distance`, throwing std::invalid_argument with run_stream's message
/// for every config run_stream rejects. Binaries call it on every config
/// they will run before any trace is recorded or file written.
ResolvedStream resolve_stream(const StreamConfig& config, int lanes,
                              int distance);

/// Lane `lane`'s noise stream for `rounds` noisy rounds, derived from
/// config.seed, config.distance and config.p: independent per lane and
/// never dependent on lane count, thread count, or scheduling.
Xoshiro256ss lane_rng(const StreamConfig& config, int lane, int rounds);

/// Throws std::invalid_argument with record_trace's message when
/// config.lanes < 1, config.p is outside [0, 1] (NaN included), or
/// config.rounds is negative or so large that rounds + 1 overflows an int.
void validate_record(const StreamConfig& config);

/// The "record" half: samples one memory-experiment history per lane from
/// its lane_rng() stream (PhenomenologicalSampler); the trace fully
/// determines any later run. Throws what validate_record() throws, and a
/// std::bad_alloc naming the lanes, rounds and bytes when the trace cannot
/// be held.
SyndromeTrace record_trace(const StreamConfig& config);

/// Rounds per dispatch of a static pool (dedicated or round_robin under
/// overflow admission); other pools dispatch one round (DESIGN.md 8.3).
inline constexpr int kStaticWindow = 64;

/// The "replay" half: streams every lane of `trace` through its own online
/// engine; service parameters come from `config` via resolve_stream().
StreamOutcome run_stream(const SyndromeTrace& trace,
                         const StreamConfig& config);

/// record_trace + run_stream in one call (fresh-noise convenience).
StreamOutcome run_stream(const StreamConfig& config);

}  // namespace qec
