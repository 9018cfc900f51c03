// Streaming decode service: drives many logical-qubit lanes through a
// shared pool of K on-line QECOOL engines (K <= N lanes) — the fleet-scale
// version of the single-trial run_online() loop, modelling a processor's
// worth of syndrome streams arriving every measurement interval and the
// hardware-budget question behind it: how much decode hardware per chip
// (the ~2,500-patch question src/sfq/fabric.hpp asks, answered in the
// time domain).
//
// Each round, every live lane receives its arriving difference layer, and
// a pluggable SchedulerPolicy (stream/scheduler.hpp) grants up to K lanes
// one engine's worth of decode cycles; ungranted lanes carry the deficit
// as Reg queue depth. K == N with the "dedicated" policy is the original
// one-engine-per-lane service, byte for byte.
//
// Admission control (stream/admission.hpp) decides what happens when a
// lane's queues fill: admission=overflow lets the next push overflow the
// Reg and kill the lane (the PR 3 behaviour, byte-identical),
// admission=pause freezes the lane's logical clock at the high-water
// mark, drains its backlog on engines the policy leaves idle, and
// re-admits it at the low-water mark, and admission=codel freezes on
// sustained sojourn latency instead (the CoDel control law in logical
// rounds, stream/qos.hpp) with the depth mark as overflow backstop.
// budget_w ties the pool size K to the 4-K-stage power budget through
// the ERSFQ model (PoolPowerModel). Every pushed layer is timestamped at
// enqueue, so per-lane end-to-end sojourn percentiles — paused lanes
// included — come out in write_latency_csv.
//
// Determinism contract: every lane is an independent (engine, telemetry)
// pair; the scheduler advances all live lanes over the PR-1 thread-pool
// executor in lane blocks (each lane's admission step included) — a
// static pool in windows of rounds with grants computed per lane, any
// other pool one round at a time with engines assigned on the calling
// thread — and reduces the blocks' tallies on the calling thread in
// block and round order. The outcome — including every telemetry CSV,
// byte for byte — is a pure function of (trace, StreamConfig minus
// threads); --threads only changes wall-clock. See DESIGN.md sections 7-8.
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
/// section 12). Both default off; a disabled tracer costs one branch per
/// hook site, so instrumented builds run within noise of PR 6. All event
/// timestamps are logical rounds — the trace and the metrics CSV are pure
/// functions of (trace, config minus threads), byte-identical at any
/// thread count.
struct StreamObsConfig {
  /// Record the per-track event trace (StreamOutcome::tracer).
  bool trace = false;
  /// Per-track ring capacity in events; the ring is a flight recorder —
  /// once full the oldest events are overwritten and counted as dropped.
  int trace_ring = 1 << 14;
  /// Maintain the windowed metrics registry (StreamOutcome::metrics).
  bool metrics = false;
  /// Rounds per metrics window (counters are window deltas, gauges are
  /// sampled at window close, histograms reset per window).
  int metrics_window = 64;
  /// Wall-clock self-profiling (obs/profile.hpp, StreamOutcome::profiler).
  /// The ONE obs feature exempt from the determinism contract: its CSV,
  /// its prof_* metrics columns, and the pid-4 Chrome-trace track measure
  /// real time. Outcomes are untouched — timing is observed, never
  /// consulted — and with this off (the default) every export stays
  /// byte-identical.
  bool profile = false;
  /// SLO spec, parse_slo_spec() grammar — e.g. "sojourn_p99<8,window=256"
  /// (obs/slo.hpp). Non-empty implies a metrics registry; its `window=`
  /// option overrides metrics_window. Verdicts derive only from windowed
  /// metrics, so they are thread-count invariant.
  std::string slo;
  /// Postmortem flight-recorder bundle directory (obs/postmortem.hpp).
  /// Non-empty arms the process-wide FlightRecorder with this run's obs
  /// objects; SIGUSR1 (when the bench installed handlers) or an explicit
  /// FlightRecorder::dump() writes the bundle there.
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
  /// accumulate; <= 0 = unconstrained). See cycles_per_microsecond().
  double cycles_per_round = 0.0;

  /// Clean rounds pushed after the trace ends before giving up on a lane.
  int max_drain_rounds = 1000;

  /// Decoder engines in the shared pool (K); <= 0 means one per lane
  /// (K == N). Must end up in [1, lanes].
  int engines = 0;

  /// Lane-to-engine scheduling policy spec, resolved via
  /// make_scheduler_policy() — "dedicated", "round_robin",
  /// "round_robin:offset=3", "least_loaded", or "fq" /
  /// "fq:quantum=120" (FQ-CoDel-style deficit-round-robin,
  /// stream/qos.hpp).
  std::string policy = "dedicated";

  /// Ignored: the service picks its own dispatch size (a fixed window for
  /// static pools, one round otherwise; DESIGN.md section 8.3). Kept only
  /// until the benchmark stops setting it.
  int rounds_per_dispatch = 1;

  /// Admission control spec, resolved via parse_admission_spec():
  /// "overflow" (PR 3 behaviour, byte-identical), "pause" /
  /// "pause:high=H,low=L" (freeze a lane's logical clock at the queue
  /// high-water mark instead of overflowing its Reg queues), or "codel" /
  /// "codel:target=T,interval=I" (freeze on sustained sojourn latency —
  /// the CoDel control law in logical rounds, anticipating overflow
  /// instead of waiting for the depth mark). See stream/admission.hpp
  /// and stream/qos.hpp.
  std::string admission = "overflow";

  /// 4-K-stage power budget in watts; > 0 caps the pool at the largest K
  /// whose modelled ERSFQ dissipation fits (PoolPowerModel). Requires a
  /// positive cycles_per_round (the clock sets the watts); throws when
  /// not even one engine fits. <= 0 leaves K uncapped.
  double budget_w = 0.0;

  /// Worker threads (<= 0: all hardware threads). Never changes results.
  int threads = 1;

  /// Event tracing and windowed metrics (src/obs); both off by default.
  StreamObsConfig obs;
};

struct StreamOutcome {
  StreamTelemetry telemetry;
  int lanes = 0;
  int overflow_lanes = 0;
  int drained_lanes = 0;
  int logical_failures = 0;  ///< among operationally successful lanes
  int failed_lanes = 0;      ///< overflow + undrained + logical

  /// Populated when config.obs.trace: the merged event timeline
  /// (obs::write_chrome_trace serializes it for Perfetto).
  std::shared_ptr<obs::Tracer> tracer;
  /// Populated when config.obs.metrics: the closed-window time series
  /// (MetricsRegistry::write_csv serializes it).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Populated when config.obs.profile: per-stage wall-clock totals
  /// (explicitly non-deterministic; Profiler::write_csv serializes it).
  std::shared_ptr<obs::Profiler> profiler;
  /// Populated when config.obs.slo is non-empty: burn-rate verdicts and
  /// the compliance summary (SloEngine::write_csv / summary_json).
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
/// config.rounds < 0 (0 means `distance` noisy rounds) or so large that
/// the stored count rounds + 1 overflows an int. Sweeps call it on every
/// cell before the first record.
void validate_record(const StreamConfig& config);

/// Samples one memory-experiment history per lane from its lane_rng()
/// stream with PhenomenologicalSampler. Each lane block constructs its
/// lanes' packed difference layers in the trace, one round at a time.
/// This is the "record" half: the returned trace fully determines any
/// later run. Throws what validate_record() throws, and a std::bad_alloc
/// whose message names the lanes, the rounds and the bytes needed when
/// the trace's size overflows size_t or its memory cannot be had.
SyndromeTrace record_trace(const StreamConfig& config);

/// Rounds per dispatch of a static pool (dedicated or round_robin under
/// overflow admission); every other pool dispatches one round at a time.
/// DESIGN.md section 8.3.
inline constexpr int kStaticWindow = 64;

/// The "replay" half: streams every lane of `trace` through its own
/// online engine, round-by-round in lane order. Noise parameters come
/// from the trace; service parameters (engine spec, cycle budget, drain
/// bound, threads) from `config`, resolved first by resolve_stream().
StreamOutcome run_stream(const SyndromeTrace& trace,
                         const StreamConfig& config);

/// record_trace + run_stream in one call (fresh-noise convenience).
StreamOutcome run_stream(const StreamConfig& config);

}  // namespace qec
