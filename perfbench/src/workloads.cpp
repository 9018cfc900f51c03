#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "decoder/decoder.hpp"
#include "decoder/registry.hpp"
#include "noise/phenomenological.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "qecool/decode_cache.hpp"
#include "qecool/online_runner.hpp"
#include "sim/executor.hpp"
#include "sim/sweep.hpp"
#include "stream/service.hpp"
#include "stream/trace.hpp"

namespace perfbench {
namespace {

constexpr int kDistance = 9;       ///< fleet code distance
constexpr double kFleetMhz = 160;  ///< fleet decoder clock
constexpr double kSweepGhz = 2;    ///< on-line QECOOL clock in the sweep
constexpr int kProbeLanes = 512;   ///< lanes the traced layer probes drive

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

/// Runs `fn` inside a span and returns its wall time in seconds.
template <typename Fn>
double timed(Spans& spans, const std::string& name, Fn&& fn) {
  Spans::Scope scope(spans, name);
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

double median_of(const std::vector<Iteration>& its,
                 const std::function<double(const Iteration&)>& field) {
  std::vector<double> values;
  for (const Iteration& it : its) values.push_back(field(it));
  return median(values);
}

/// Median wall time of `repeats` calls of `fn`.
double median_time(int repeats, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

/// Median microseconds of an empty parallel_for over `tasks` indices.
double barrier_us(int tasks, int threads, int repeats) {
  return 1e6 * median_time(repeats, [&] {
           qec::parallel_for(tasks, threads, [](int) {});
         });
}

/// Lane k's probe RNG: an independent stream per lane derived from the
/// workload seed.
qec::Xoshiro256ss probe_rng(std::uint64_t seed, int lane) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (lane + 1ULL));
  return qec::Xoshiro256ss(qec::splitmix64(state));
}

/// The outcome fields every check compares lane by lane.
struct LaneOutcome {
  bool overflow = false;
  bool drained = false;
  bool logical = false;
  std::uint64_t cycles = 0;
  int pops = 0;
  bool operator==(const LaneOutcome&) const = default;
};

std::vector<LaneOutcome> lane_outcomes(const qec::StreamOutcome& outcome) {
  std::vector<LaneOutcome> out;
  out.reserve(outcome.telemetry.lanes.size());
  for (const auto& lane : outcome.telemetry.lanes) {
    out.push_back({lane.overflow, lane.drained, lane.logical_failure,
                   lane.total_cycles, lane.popped_layers});
  }
  return out;
}

/// Names the first lane whose outcome differs, or "" when all match.
std::string first_mismatch(const std::vector<LaneOutcome>& got,
                           const std::vector<LaneOutcome>& want) {
  if (got.size() != want.size()) return "lane count differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) return "lane " + std::to_string(i);
  }
  return "";
}

/// Push/spend timing of the on-line engine driven directly, one lane at a
/// time, with run_online's loop (all layers, then clean layers until the
/// queues drain).
struct EngineDrive {
  double push_ns = 0.0;
  double spend_ns = 0.0;
  std::uint64_t cycles = 0;
  std::int64_t lane_rounds = 0;
  qec::DecodeCacheStats cache;

  template <typename LayerAt>
  void drive(const qec::PlanarLattice& lattice, const qec::OnlineConfig& online,
             int layers, const LayerAt& layer_at, bool time_ops) {
    qec::OnlineStepper stepper(lattice, online);
    std::unique_ptr<qec::DecodeCache> lane_cache;
    if (online.engine.cache.enabled && online.engine.cache.entries > 0) {
      lane_cache = std::make_unique<qec::DecodeCache>(online.engine.cache.entries);
      stepper.set_decode_cache(lane_cache.get());
    }
    // One round: push the layer (null: a clean drain layer), then spend
    // the round's budget. False once the Reg queues overflow.
    const auto round = [&](const qec::PackedBits* layer) {
      ++lane_rounds;
      const auto a = time_ops ? Clock::now() : Clock::time_point{};
      const bool ok = layer ? stepper.push(*layer) : stepper.push_clean();
      const auto b = time_ops ? Clock::now() : Clock::time_point{};
      if (ok) stepper.spend(online.cycles_per_round);
      if (time_ops) {
        const auto c = Clock::now();
        push_ns += 1e9 * seconds_between(a, b);
        spend_ns += 1e9 * seconds_between(b, c);
      }
      return ok;
    };
    bool alive = true;
    for (int r = 0; r < layers && alive; ++r) alive = round(&layer_at(r));
    for (int extra = 0; alive && extra < online.max_drain_rounds; ++extra) {
      if (stepper.drained()) break;
      alive = round(nullptr);
    }
    cycles += stepper.engine().total_cycles();
    cache.merge(stepper.engine().cache_stats());
  }
};

void set_cache_layers(const qec::DecodeCacheStats& cs, Layers& layers) {
  const double windows =
      static_cast<double>(cs.hits + cs.misses + cs.bypasses + cs.zero_rounds);
  layers["cache.hit_rate"] = cs.hit_rate();
  layers["cache.bypass_frac"] = windows ? cs.bypasses / windows : 0.0;
  layers["cache.zero_round_frac"] = windows ? cs.zero_rounds / windows : 0.0;
}

// ------------------------------------------------------------------ stream

struct StreamSpec {
  int lanes = 0;
  int rounds = 0;
  double p = 0.0;
  int engines = 0;  ///< 0: one engine per lane (dedicated)
  std::string policy = "dedicated";
  std::string admission = "overflow";
  int dispatch = 8;
  bool replay_only = false;  ///< load a saved trace instead of recording
  bool obs = false;          ///< metrics, SLO, latency CSV, event trace
  bool bridge = false;       ///< print the BENCH_lane_scaling bridge line
};

class StreamWorkload : public Workload {
 public:
  StreamWorkload(Options options, StreamSpec spec)
      : opt_(std::move(options)), spec_(spec) {
    cfg_.lanes = spec_.lanes;
    cfg_.distance = kDistance;
    cfg_.p = spec_.p;
    cfg_.rounds = spec_.rounds;
    cfg_.seed = opt_.seed;
    cfg_.cycles_per_round = qec::cycles_per_microsecond(kFleetMhz * 1e6);
    cfg_.engines = spec_.engines;
    cfg_.policy = spec_.policy;
    cfg_.admission = spec_.admission;
    cfg_.rounds_per_dispatch = spec_.dispatch;
    cfg_.threads = opt_.threads;
    if (spec_.obs) {
      // A bounded flight-recorder ring keeps the exported trace small.
      cfg_.obs.trace = true;
      cfg_.obs.trace_ring = 64;
      cfg_.obs.metrics = true;
      cfg_.obs.slo = "sojourn_p99<16";
    }
    online_.engine = qec::online_engine_config(cfg_.engine);
    online_.cycles_per_round = cfg_.cycles_per_round;
    online_.max_drain_rounds = cfg_.max_drain_rounds;
    const std::string base = opt_.out_dir + "/" + opt_.workload;
    trace_path_ = base + ".qtrc";
    telemetry_path_ = base + ".telemetry.csv";
    latency_path_ = base + ".latency.csv";
    metrics_path_ = base + ".metrics.csv";
    slo_path_ = base + ".slo.csv";
    events_path_ = base + ".events.json";
  }

  void setup() override {
    trace_ = qec::record_trace(cfg_);
    if (spec_.replay_only) trace_.save(trace_path_);
    if (dedicated()) build_reference();
    Spans none(false);
    const Iteration warm = run(none, false, &warmup_);
    if (!warm.errors.empty()) {
      throw std::runtime_error("warm-up check failed: " + warm.errors.front());
    }
  }

  Iteration iterate(Spans& spans, bool traced) override {
    return run(spans, traced, nullptr);
  }

  void probe(Spans& spans, const std::vector<Iteration>& untraced,
             const std::vector<Iteration>& traced, Layers& layers,
             std::vector<std::string>& errors) override;

 private:
  bool dedicated() const { return spec_.engines == 0; }

  /// Per-lane run_online reference on trace.history(lane), plus the
  /// residual check on every drained lane's correction.
  void build_reference() {
    const qec::PlanarLattice lattice(kDistance);
    const int n = trace_.lanes();
    reference_.assign(static_cast<std::size_t>(n), {});
    std::vector<char> residual_ok(static_cast<std::size_t>(n), 1);
    qec::parallel_for(n, opt_.threads, [&](int lane) {
      const qec::SyndromeHistory history = trace_.history(lane);
      const qec::OnlineResult r = qec::run_online(lattice, history, online_);
      LaneOutcome& ref = reference_[static_cast<std::size_t>(lane)];
      ref = {r.overflow, r.drained, false, r.total_cycles,
             static_cast<int>(r.layer_cycles.size())};
      if (!r.failed_operationally()) {
        qec::DecodeResult decode;
        decode.correction = r.correction;
        ref.logical = qec::logical_failure(lattice, history, decode);
        residual_ok[static_cast<std::size_t>(lane)] =
            qec::residual_syndrome_free(lattice, history, decode);
      }
    });
    const auto bad = std::find(residual_ok.begin(), residual_ok.end(), 0);
    if (bad != residual_ok.end()) {
      throw std::runtime_error(
          "residual_syndrome_free failed on drained lane " +
          std::to_string(bad - residual_ok.begin()));
    }
  }

  /// One iteration: input (record or load), replay, exports; then the
  /// checks. `keep` receives the lane outcomes (the warm-up baseline).
  Iteration run(Spans& spans, bool traced, std::vector<LaneOutcome>* keep) {
    Iteration it;
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    qec::SyndromeTrace trace;
    it.input_s = timed(spans, spec_.replay_only ? "SyndromeTrace::load" : "record_trace", [&] {
      trace = spec_.replay_only ? qec::SyndromeTrace::load(trace_path_)
                                : qec::record_trace(cfg_);
    });
    qec::StreamConfig config = cfg_;
    config.obs.profile = traced;
    qec::StreamOutcome outcome;
    it.decode_s = timed(spans, "run_stream", [&] { outcome = qec::run_stream(trace, config); });
    {
      Spans::Scope scope(spans, "export");
      if (spec_.obs) {
        it.csv_export_ms = 1e3 * timed(spans, "write_latency_csv", [&] {
          check_written(outcome.telemetry.write_latency_csv(latency_path_), latency_path_, it);
        });
        it.metrics_export_ms = 1e3 * timed(spans, "metrics+slo write_csv", [&] {
          check_written(outcome.metrics->write_csv(metrics_path_), metrics_path_, it);
          check_written(outcome.slo->write_csv(slo_path_), slo_path_, it);
        });
        it.trace_export_ms = 1e3 * timed(spans, "write_chrome_trace", [&] {
          check_written(qec::obs::write_chrome_trace(*outcome.tracer, events_path_),
                        events_path_, it);
        });
        it.export_bytes = file_bytes(latency_path_) + file_bytes(metrics_path_) +
                          file_bytes(slo_path_) + file_bytes(events_path_);
      } else {
        it.csv_export_ms = 1e3 * timed(spans, "telemetry write_csv", [&] {
          check_written(outcome.telemetry.write_csv(telemetry_path_), telemetry_path_, it);
        });
        it.export_bytes = file_bytes(telemetry_path_);
      }
    }
    it.wall_s = seconds_since(start);
    it.cpu_s = process_cpu_s() - cpu0;

    qec::DecodeCacheStats cache;
    for (const auto& lane : outcome.telemetry.lanes) {
      it.lane_rounds += lane.rounds_streamed + lane.drain_rounds;
      cache.merge(lane.cache);
    }
    it.trials = outcome.lanes;
    set_cache_layers(cache, it.counters);
    if (outcome.tracer) {
      it.counters["obs.events"] = static_cast<double>(outcome.tracer->emitted());
      it.counters["obs.dropped"] = static_cast<double>(outcome.tracer->dropped());
    }
    if (outcome.profiler) {
      const auto totals = outcome.profiler->totals();
      const auto stage = [&](qec::obs::Stage s) {
        return totals[static_cast<std::size_t>(s)];
      };
      it.counters["stream.dispatch_assign_ms"] = stage(qec::obs::Stage::kDispatchAssign).nanos * 1e-6;
      it.counters["stream.lane_execute_ms"] = stage(qec::obs::Stage::kLaneExecute).nanos * 1e-6;
      it.counters["stream.reduction_ms"] = stage(qec::obs::Stage::kReduction).nanos * 1e-6;
      it.counters["stream.telemetry_close_ms"] = stage(qec::obs::Stage::kTelemetryClose).nanos * 1e-6;
      it.counters["stream.dispatches"] = static_cast<double>(stage(qec::obs::Stage::kDispatchAssign).calls);
    }
    check(trace, outcome, it, keep);
    return it;
  }

  static void check_written(bool ok, const std::string& path, Iteration& it) {
    if (!ok) it.errors.push_back("cannot write " + path);
  }

  void check(const qec::SyndromeTrace& trace, const qec::StreamOutcome& outcome,
             Iteration& it, std::vector<LaneOutcome>* keep) const {
    if (!(trace == trace_)) it.errors.push_back("input trace differs from set-up trace");
    // Ledger: every lane is overflowed, drained or undrained, exactly once,
    // and the outcome's counters agree with the per-lane telemetry.
    int overflow = 0, drained = 0, undrained = 0, logical = 0;
    for (const auto& lane : outcome.telemetry.lanes) {
      if (lane.overflow) {
        ++overflow;
      } else if (lane.drained) {
        ++drained;
        logical += lane.logical_failure ? 1 : 0;
      } else {
        ++undrained;
      }
      if (lane.rounds_streamed > trace.rounds()) {
        it.errors.push_back("lane streamed more rounds than the trace holds");
      }
    }
    if (overflow + drained + undrained != outcome.lanes ||
        outcome.lanes != trace.lanes() || overflow != outcome.overflow_lanes ||
        drained != outcome.drained_lanes ||
        outcome.failed_lanes != overflow + undrained + logical) {
      it.errors.push_back("lane ledger does not reconcile");
    }
    const std::vector<LaneOutcome> got = lane_outcomes(outcome);
    if (dedicated()) {
      const std::string bad = first_mismatch(got, reference_);
      if (!bad.empty()) it.errors.push_back("service differs from run_online at " + bad);
    } else if (!warmup_.empty()) {
      const std::string bad = first_mismatch(got, warmup_);
      if (!bad.empty()) it.errors.push_back("outcome differs from warm-up at " + bad);
    }
    if (keep) *keep = got;
  }

  Options opt_;
  StreamSpec spec_;
  qec::StreamConfig cfg_;
  qec::OnlineConfig online_;
  qec::SyndromeTrace trace_;
  std::vector<LaneOutcome> reference_;  ///< dedicated: per-lane run_online
  std::vector<LaneOutcome> warmup_;     ///< outcome of the warm-up iteration
  std::string trace_path_, telemetry_path_, latency_path_, metrics_path_,
      slo_path_, events_path_;
};

void StreamWorkload::probe(Spans& spans, const std::vector<Iteration>& untraced,
                           const std::vector<Iteration>& traced, Layers& layers,
                           std::vector<std::string>& errors) {
  const qec::PlanarLattice lattice(kDistance);
  const int n = trace_.lanes();
  const int probe_lanes = std::min(n, kProbeLanes);
  const double rounds = trace_.rounds();
  const double replay_s = median_of(untraced, [](const Iteration& i) { return i.decode_s; });

  // Noise sampling and trace packing, one lane at a time.
  {
    Spans::Scope scope(spans, "probe.noise+pack");
    const qec::NoiseParams params{spec_.p, spec_.p, spec_.rounds};
    qec::TraceHeader header = trace_.header();
    header.lanes = static_cast<std::uint32_t>(probe_lanes);
    qec::SyndromeTrace packed(header);
    double sample_s = 0.0, pack_s = 0.0, defects = 0.0;
    for (int lane = 0; lane < probe_lanes; ++lane) {
      qec::Xoshiro256ss rng = probe_rng(opt_.seed, lane);
      qec::SyndromeHistory history;
      sample_s += timed(spans, "sample_history", [&] {
        history = qec::sample_history(lattice, params, rng);
      });
      defects += qec::defect_count(history);
      pack_s += timed(spans, "SyndromeTrace::set_lane",
                      [&] { packed.set_lane(lane, history); });
    }
    const double probe_rounds = probe_lanes * rounds;
    layers["noise.sample_ns_per_lane_round"] = 1e9 * sample_s / probe_rounds;
    layers["noise.defects_per_lane_round"] = defects / probe_rounds;
    layers["trace.pack_ns_per_lane_round"] = 1e9 * pack_s / probe_rounds;
  }

  // The on-line engine driven directly, push and spend timed apart.
  {
    Spans::Scope scope(spans, "probe.OnlineStepper");
    EngineDrive drive;
    for (int lane = 0; lane < probe_lanes; ++lane) {
      drive.drive(lattice, online_, trace_.rounds(),
                  [&](int r) -> const qec::PackedBits& { return trace_.layer(lane, r); },
                  /*time_ops=*/true);
    }
    const double lr = static_cast<double>(drive.lane_rounds);
    layers["qecool.push_ns_per_lane_round"] = drive.push_ns / lr;
    layers["qecool.spend_ns_per_lane_round"] = drive.spend_ns / lr;
    layers["qecool.cycles_per_lane_round"] = static_cast<double>(drive.cycles) / lr;
  }

  // Service overhead: the same lanes driven directly, in parallel, versus
  // run_stream (dedicated policy only: a shared pool changes outcomes).
  if (dedicated()) {
    const double direct_s = timed(spans, "probe.direct_drive", [&] {
      std::vector<EngineDrive> drives(static_cast<std::size_t>(n));
      qec::parallel_for(n, opt_.threads, [&](int lane) {
        drives[static_cast<std::size_t>(lane)].drive(
            lattice, online_, trace_.rounds(),
            [&](int r) -> const qec::PackedBits& { return trace_.layer(lane, r); },
            /*time_ops=*/false);
      });
    });
    layers["stream.service_overhead_frac"] = 1.0 - direct_s / replay_s;
  }

  // Library stage profile of the traced iterations.
  for (const char* name : {"stream.dispatch_assign_ms", "stream.lane_execute_ms",
                           "stream.reduction_ms", "stream.telemetry_close_ms",
                           "stream.dispatches"}) {
    layers[name] = median_of(traced, [&](const Iteration& i) { return i.counters.at(name); });
  }

  const Iteration& last = untraced.back();
  for (const char* name : {"cache.hit_rate", "cache.bypass_frac", "cache.zero_round_frac"}) {
    layers[name] = last.counters.at(name);
  }

  // Executor: an empty barrier over the lanes, and replay at one thread
  // (whose outcome must equal the T-thread outcome).
  {
    Spans::Scope scope(spans, "probe.parallel_for(empty)");
    layers["executor.barrier_us"] = barrier_us(n, opt_.threads, 200);
  }
  {
    qec::StreamConfig one = cfg_;
    one.threads = 1;
    qec::StreamOutcome outcome;
    const double t1 = timed(spans, "run_stream(threads=1)",
                            [&] { outcome = qec::run_stream(trace_, one); });
    layers["executor.replay_speedup"] = t1 / replay_s;
    const std::string bad =
        first_mismatch(lane_outcomes(outcome), dedicated() ? reference_ : warmup_);
    if (!bad.empty()) errors.push_back("threads=1 outcome differs from threads=T at " + bad);
  }

  // Exports.
  layers["telemetry.csv_export_ms"] = median_of(untraced, [](const Iteration& i) { return i.csv_export_ms; });
  layers["obs.export_bytes"] = static_cast<double>(last.export_bytes);
  if (spec_.replay_only) {
    layers["trace.load_ms"] = 1e3 * median_of(untraced, [](const Iteration& i) { return i.input_s; });
  }
  if (spec_.obs) {
    layers["obs.events"] = last.counters.at("obs.events");
    layers["obs.dropped"] = last.counters.at("obs.dropped");
    layers["obs.trace_export_ms"] = median_of(untraced, [](const Iteration& i) { return i.trace_export_ms; });
    layers["obs.metrics_export_ms"] = median_of(untraced, [](const Iteration& i) { return i.metrics_export_ms; });
    qec::StreamConfig off = cfg_;
    off.obs = qec::StreamObsConfig{};
    Spans::Scope scope(spans, "run_stream(obs off)");
    const double off_s = median_time(opt_.smoke ? 1 : 3, [&] { qec::run_stream(trace_, off); });
    layers["obs.hook_overhead_frac"] = replay_s / off_s - 1.0;
  }

  if (spec_.bridge) {
    // Continuity with BENCH_lane_scaling.json's after_profile record:
    // threads=1, one round per dispatch, same cell.
    qec::StreamConfig old = cfg_;
    old.threads = 1;
    old.rounds_per_dispatch = 1;
    const double t = timed(spans, "run_stream(bridge)", [&] { qec::run_stream(trace_, old); });
    std::printf("bridge: threads=1 dispatch=1 replay_lane_rounds_per_s = %.0f "
                "at seed %llu (BENCH_lane_scaling.json after_profile: 1104961 "
                "at seed 2021)\n",
                static_cast<double>(untraced.back().lane_rounds) / t,
                static_cast<unsigned long long>(opt_.seed));
  }
}

// ------------------------------------------------------------------- sweep

/// Logical failure counts pinned from a large run of the sweep grid (seed
/// 1, `trials` per cell); each iteration's cells must be consistent with
/// them. Regenerate with `perfbench --pin=TRIALS`.
struct PinnedCell {
  const char* variant;
  int distance;
  double p;
  std::uint64_t failures;
  std::uint64_t trials;
};

const PinnedCell kPinned[] = {
#include "pinned_sweep.inc"
};

/// log P(X >= k) for X ~ Binomial(n, p) (k <= 0 gives 0).
double log_upper_tail(std::uint64_t k, std::uint64_t n, double p) {
  if (k == 0) return 0.0;
  if (p <= 0.0) return -INFINITY;
  double total = -INFINITY;
  for (std::uint64_t j = k; j <= n; ++j) {
    const double term = std::lgamma(n + 1.0) - std::lgamma(j + 1.0) -
                        std::lgamma(n - j + 1.0) + j * std::log(p) +
                        (n - j) * std::log1p(-p);
    total = std::max(total, term) + std::log1p(std::exp(-std::fabs(total - term)));
  }
  return total;
}

/// True when k failures in n trials are consistent with a pinned k0 of n0:
/// neither binomial tail, taken at the edge of the pinned rate's z=5
/// Wilson interval, falls below 1e-7. Independent of the RNG stream.
bool consistent_with_pin(std::uint64_t k, std::uint64_t n, std::uint64_t k0,
                         std::uint64_t n0) {
  const qec::BinomialInterval ci = qec::wilson_interval(k0, n0, 5.0);
  const double floor = std::log(1e-7);
  const bool too_many = log_upper_tail(k, n, ci.upper) < floor;
  const bool too_few = ci.lower > 0.0 && log_upper_tail(n - k, n, 1.0 - ci.lower) < floor;
  return !too_many && !too_few;
}

class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(Options options) : opt_(std::move(options)) {
    csv_path_ = opt_.out_dir + "/" + opt_.workload + ".sweep.csv";
  }

  qec::SweepGrid grid(int threads, int trials) const {
    qec::SweepGrid g;
    g.distances = opt_.smoke ? std::vector<int>{5} : std::vector<int>{5, 9, 13};
    g.ps = {0.005, 0.01};
    g.trials = trials;
    g.seed = opt_.seed;
    g.threads = threads;
    g.shards = 16;
    g.variants.push_back(qec::online_variant("qecool_online", online()));
    g.variants.push_back(qec::decoder_variant("qecool_batch", "qecool"));
    // MWPM's cost grows ~cubically with defects: its trial count adapts to
    // a budget that scales with the grid's trials (320 ms at 2560 trials).
    auto mwpm = qec::decoder_variant("mwpm", "mwpm");
    const double budget_ms = 0.125 * trials;
    mwpm.trials_for = [budget_ms](const qec::ExperimentConfig& config) {
      return qec::bench::mwpm_trials(config.trials, config.distance,
                                     config.p_data, config.rounds, budget_ms);
    };
    g.variants.push_back(std::move(mwpm));
    return g;
  }

  void setup() override {
    Spans none(false);
    const Iteration warm = run(none, false, &warmup_);
    if (!warm.errors.empty()) {
      throw std::runtime_error("warm-up check failed: " + warm.errors.front());
    }
  }

  Iteration iterate(Spans& spans, bool traced) override {
    return run(spans, traced, nullptr);
  }

  void probe(Spans& spans, const std::vector<Iteration>& untraced,
             const std::vector<Iteration>& traced, Layers& layers,
             std::vector<std::string>& errors) override;

  /// Prints pinned rows for pinned_sweep.inc from a `trials`-per-cell run.
  void pin(int trials) const {
    qec::SweepGrid g = grid(opt_.threads, trials);
    g.seed = 1;
    const qec::SweepResult result = qec::run_sweep(g);
    for (const auto& cell : result.cells) {
      std::printf("    {\"%s\", %d, %g, %llu, %llu},\n", cell.variant.c_str(),
                  cell.distance, cell.p,
                  static_cast<unsigned long long>(cell.result.failures),
                  static_cast<unsigned long long>(cell.result.trials));
    }
  }

 private:
  int trials() const { return opt_.smoke ? 32 : 2560; }

  static qec::OnlineConfig online() {
    qec::OnlineConfig config;
    config.cycles_per_round = qec::cycles_per_microsecond(kSweepGhz * 1e9);
    return config;
  }

  Iteration run(Spans& spans, bool traced, std::vector<std::uint64_t>* keep) {
    Iteration it;
    const qec::SweepGrid g = grid(opt_.threads, trials());
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    qec::SweepResult result;
    // Traced iterations record one span per finished cell.
    auto cell_start = Clock::now();
    const qec::SweepProgress progress = [&](const qec::SweepCell& cell) {
      const auto now = Clock::now();
      spans.record(cell.variant + " d=" + std::to_string(cell.distance) +
                       " p=" + qec::bench::fmt(cell.p, "%g"),
                   cell_start, now);
      cell_start = now;
    };
    it.decode_s = timed(spans, "run_sweep", [&] {
      result = qec::run_sweep(g, "", traced ? progress : nullptr);
    });
    it.input_s = it.decode_s;  // sampling is fused with decoding
    it.csv_export_ms = 1e3 * timed(spans, "SweepResult::write_csv", [&] {
      if (!result.write_csv(csv_path_)) it.errors.push_back("cannot write " + csv_path_);
    });
    it.export_bytes = file_bytes(csv_path_);
    it.wall_s = seconds_since(start);
    it.cpu_s = process_cpu_s() - cpu0;

    std::vector<std::uint64_t> failures;
    for (const auto& cell : result.cells) {
      it.trials += static_cast<std::int64_t>(cell.result.trials);
      it.lane_rounds += static_cast<std::int64_t>(cell.result.trials) * (cell.config.rounds + 1);
      failures.push_back(cell.result.failures);
      const PinnedCell* pinned = nullptr;
      for (const PinnedCell& row : kPinned) {
        if (cell.variant == row.variant && cell.distance == row.distance &&
            cell.p == row.p) {
          pinned = &row;
        }
      }
      if (!pinned) {
        it.errors.push_back("no pinned rate for " + cell.variant);
      } else if (!consistent_with_pin(cell.result.failures, cell.result.trials,
                                      pinned->failures, pinned->trials)) {
        it.errors.push_back(cell.variant + " d=" + std::to_string(cell.distance) +
                            " p=" + qec::bench::fmt(cell.p, "%g") +
                            " is outside the pinned rate's binomial interval");
      }
    }
    if (!warmup_.empty() && failures != warmup_) {
      it.errors.push_back("sweep outcome differs from warm-up");
    }
    if (keep) *keep = failures;
    return it;
  }

  Options opt_;
  std::string csv_path_;
  std::vector<std::uint64_t> warmup_;  ///< per-cell failures of the warm-up
};

void SweepWorkload::probe(Spans& spans, const std::vector<Iteration>& untraced,
                          const std::vector<Iteration>& /*traced*/, Layers& layers,
                          std::vector<std::string>& errors) {
  const qec::SweepGrid g = grid(opt_.threads, trials());
  const int per_cell = opt_.smoke ? 4 : 16;
  const auto batch = qec::make_decoder("qecool");
  const auto mwpm = qec::make_decoder("mwpm");
  double sample_s = 0.0, batch_s = 0.0, mwpm_s = 0.0, online_s = 0.0;
  double defects = 0.0, sampled_rounds = 0.0;
  EngineDrive drive;
  int histories = 0;
  {
    Spans::Scope scope(spans, "probe.decoders");
    for (const int d : g.distances) {
      const qec::PlanarLattice lattice(d);
      for (const double p : g.ps) {
        const qec::NoiseParams params{p, p, d};
        for (int k = 0; k < per_cell; ++k, ++histories) {
          qec::Xoshiro256ss rng = probe_rng(opt_.seed, histories);
          qec::SyndromeHistory history;
          sample_s += timed(spans, "sample_history", [&] {
            history = qec::sample_history(lattice, params, rng);
          });
          sampled_rounds += history.total_rounds();
          defects += qec::defect_count(history);
          batch_s += timed(spans, "Decoder::decode(qecool)",
                           [&] { batch->decode(lattice, history); });
          mwpm_s += timed(spans, "Decoder::decode(mwpm)",
                          [&] { mwpm->decode(lattice, history); });
          online_s += timed(spans, "run_online", [&] {
            qec::run_online(lattice, history, online());
          });
          const auto packed = qec::packed_layers(history.difference);
          drive.drive(lattice, online(), static_cast<int>(packed.size()),
                      [&](int r) -> const qec::PackedBits& { return packed[static_cast<std::size_t>(r)]; },
                      /*time_ops=*/true);
        }
      }
    }
  }
  const double n = histories;
  layers["noise.sample_ns_per_lane_round"] = 1e9 * sample_s / sampled_rounds;
  layers["noise.defects_per_lane_round"] = defects / sampled_rounds;
  layers["sim.sample_ns_per_trial"] = 1e9 * sample_s / n;
  layers["decoder.qecool_online.ns_per_trial"] = 1e9 * online_s / n;
  layers["decoder.qecool_batch.ns_per_trial"] = 1e9 * batch_s / n;
  layers["decoder.mwpm.ns_per_trial"] = 1e9 * mwpm_s / n;
  layers["decoder.mwpm.defects_per_trial"] = defects / n;
  const double lr = static_cast<double>(drive.lane_rounds);
  layers["qecool.push_ns_per_lane_round"] = drive.push_ns / lr;
  layers["qecool.spend_ns_per_lane_round"] = drive.spend_ns / lr;
  layers["qecool.cycles_per_lane_round"] = static_cast<double>(drive.cycles) / lr;
  set_cache_layers(drive.cache, layers);

  layers["executor.barrier_us"] = barrier_us(g.shards, opt_.threads, 200);
  const double sweep_s = median_of(untraced, [](const Iteration& i) { return i.decode_s; });
  qec::SweepResult one;
  const double t1 = timed(spans, "run_sweep(threads=1)", [&] {
    one = qec::run_sweep(grid(1, trials()));
  });
  layers["executor.replay_speedup"] = t1 / sweep_s;
  std::vector<std::uint64_t> failures;
  for (const auto& cell : one.cells) failures.push_back(cell.result.failures);
  if (failures != warmup_) errors.push_back("threads=1 sweep differs from threads=T");
  layers["telemetry.csv_export_ms"] = median_of(untraced, [](const Iteration& i) { return i.csv_export_ms; });
  layers["obs.export_bytes"] = static_cast<double>(untraced.back().export_bytes);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"noise.sample_ns_per_lane_round", "ns"},
      {"noise.defects_per_lane_round", "count"},
      {"trace.pack_ns_per_lane_round", "ns"},
      {"trace.load_ms", "ms"},
      {"qecool.push_ns_per_lane_round", "ns"},
      {"qecool.spend_ns_per_lane_round", "ns"},
      {"qecool.cycles_per_lane_round", "cycles"},
      {"cache.hit_rate", "ratio"},
      {"cache.bypass_frac", "ratio"},
      {"cache.zero_round_frac", "ratio"},
      {"stream.dispatch_assign_ms", "ms"},
      {"stream.lane_execute_ms", "ms"},
      {"stream.reduction_ms", "ms"},
      {"stream.telemetry_close_ms", "ms"},
      {"stream.dispatches", "count"},
      {"stream.service_overhead_frac", "ratio"},
      {"executor.barrier_us", "us"},
      {"executor.replay_speedup", "ratio"},
      {"obs.hook_overhead_frac", "ratio"},
      {"obs.events", "count"},
      {"obs.dropped", "count"},
      {"obs.trace_export_ms", "ms"},
      {"obs.metrics_export_ms", "ms"},
      {"telemetry.csv_export_ms", "ms"},
      {"obs.export_bytes", "bytes"},
      {"sim.sample_ns_per_trial", "ns"},
      {"decoder.qecool_online.ns_per_trial", "ns"},
      {"decoder.qecool_batch.ns_per_trial", "ns"},
      {"decoder.mwpm.ns_per_trial", "ns"},
      {"decoder.mwpm.defects_per_trial", "count"},
      {"bench.tracing_overhead_frac", "ratio"},
  };
  return units;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  const bool smoke = options.smoke;
  StreamSpec spec;
  spec.lanes = smoke ? 64 : 4096;
  if (options.workload == "fleet_stress") {
    spec.p = 0.01;
    spec.rounds = smoke ? 16 : 64;
    spec.bridge = !smoke;
    return std::make_unique<StreamWorkload>(options, spec);
  }
  if (options.workload == "fleet_operating") {
    spec.p = 1e-3;
    spec.rounds = smoke ? 32 : 256;
    return std::make_unique<StreamWorkload>(options, spec);
  }
  if (options.workload == "pool_qos") {
    spec.lanes = smoke ? 64 : 1024;
    spec.p = 2e-3;
    spec.rounds = smoke ? 32 : 256;
    spec.engines = smoke ? 16 : 256;
    spec.policy = "fq";
    spec.admission = "codel";
    spec.replay_only = true;
    spec.obs = true;
    return std::make_unique<StreamWorkload>(options, spec);
  }
  if (options.workload == "paper_sweep") {
    return std::make_unique<SweepWorkload>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void pin_sweep(const Options& options, int trials) {
  SweepWorkload(options).pin(trials);
}

}  // namespace perfbench
