// Tests for PR 10's observability additions (src/obs): the SLO spec
// grammar collects every malformed item, unknown objective metrics are
// all named at attach, the dual-window burn-rate rules page/warn/recover
// exactly as documented, a small bursty codel run reproduces a
// golden-pinned verdict sequence (with kSloState trace events on the
// control track), every SLO-enabled export is byte-identical at 1 vs 4
// worker threads, 0-round and window-larger-than-run edges stay tame,
// the wall-clock profiler records stages without perturbing outcomes,
// and the postmortem flight recorder writes a complete, valid-JSON bundle.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/postmortem.hpp"
#include "obs/profile.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"
#include "surface_code/planar_lattice.hpp"
#include "trace_fixture.hpp"

namespace qec {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SloSpec, GrammarObjectivesOpsAndOptions) {
  const auto config =
      obs::parse_slo_spec("sojourn_p99<8,depth_p95<=12,pushes>0,"
                          "starves>=1,window=32,fast=2,slow=8");
  ASSERT_EQ(config.objectives.size(), 4u);
  EXPECT_EQ(config.objectives[0].spec(), "sojourn_p99<8");
  EXPECT_EQ(config.objectives[1].spec(), "depth_p95<=12");
  EXPECT_EQ(config.objectives[2].spec(), "pushes>0");
  EXPECT_EQ(config.objectives[3].spec(), "starves>=1");
  EXPECT_EQ(config.window, 32);
  EXPECT_EQ(config.fast, 2);
  EXPECT_EQ(config.slow, 8);

  const auto defaults = obs::parse_slo_spec("sojourn_p99<8");
  EXPECT_EQ(defaults.window, 0);  // keep the registry's configured window
  EXPECT_EQ(defaults.fast, 4);
  EXPECT_EQ(defaults.slow, 16);
}

TEST(SloSpec, MalformedSpecNamesEveryOffendingItem) {
  try {
    obs::parse_slo_spec("nope,bogus=3,sojourn_p99!8,fast=0");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Spec-parse contract: every problem reported, not just the first.
    EXPECT_NE(what.find("nope"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("sojourn_p99!8"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
  }
  EXPECT_THROW(obs::parse_slo_spec(""), std::invalid_argument);
  // Options alone do not make an SLO: at least one objective required.
  EXPECT_THROW(obs::parse_slo_spec("window=8"), std::invalid_argument);
  // slow must cover fast.
  EXPECT_THROW(obs::parse_slo_spec("sojourn_p99<8,fast=8,slow=4"),
               std::invalid_argument);
}

TEST(SloEngine, UnknownMetricsAllNamedAtAttach) {
  obs::MetricsRegistry reg(/*window=*/4);
  reg.add_counter("pushes");
  obs::SloEngine engine(obs::parse_slo_spec("foo<1,bar>2"));
  try {
    engine.attach(reg, nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("foo"), std::string::npos) << what;
    EXPECT_NE(what.find("bar"), std::string::npos) << what;
    EXPECT_NE(what.find("pushes"), std::string::npos)
        << "known metrics should be listed: " << what;
  }
}

TEST(SloEngine, DualWindowBurnRateRules) {
  // One gauge, window = 1 round, fast = 2, slow = 4: drive the violation
  // bit directly and check the documented state machine.
  //   page    — every fast window bad AND >= 1/2 of slow bad
  //   warning — >= 1/2 of fast bad AND >= 1/4 of slow bad
  obs::MetricsRegistry reg(/*window=*/1);
  const int g = reg.add_gauge("load");
  auto config = obs::parse_slo_spec("load>=10,fast=2,slow=4");
  obs::SloEngine engine(std::move(config));
  engine.attach(reg, nullptr);

  // The objective is "load stays >= 10": a window with load below 10
  // violates it.
  const std::int64_t values[] = {0, 0, 10, 10, 0};
  const obs::SloState expected[] = {
      obs::SloState::kWarning,  // bad:       fast 1/2, slow 1/4
      obs::SloState::kPage,     // bad again: fast 2/2, slow 2/4
      obs::SloState::kWarning,  // recovers:  fast 1/2, slow 2/4
      obs::SloState::kOk,       // clean:     fast 0/2, slow 2/4
      obs::SloState::kWarning,  // bad again: fast 1/2, slow 3/4
  };
  for (std::size_t i = 0; i < std::size(values); ++i) {
    reg.set_gauge(g, values[i]);
    reg.tick(static_cast<std::int64_t>(i));
    ASSERT_EQ(engine.verdicts().size(), i + 1);
    EXPECT_EQ(engine.verdicts().back().state, expected[i]) << "window " << i;
  }
  EXPECT_FALSE(engine.compliant());  // window 1 paged
  EXPECT_EQ(engine.summaries()[0].pages, 1);
  EXPECT_EQ(engine.summaries()[0].warnings, 3);
  EXPECT_EQ(engine.summaries()[0].violations, 3);
}

StreamConfig bursty_config() {
  // The PR 7 golden scenario (tests/obs_test.cpp): K < N under a tight
  // clock with codel admission — sojourn spikes within a dozen rounds.
  StreamConfig config;
  config.lanes = 6;
  config.distance = 5;
  config.p = 0.02;
  config.rounds = 12;
  config.seed = 7;
  config.engines = 2;
  config.policy = "fq";
  config.admission = "codel";
  config.cycles_per_round = cycles_per_microsecond(20e6);
  return config;
}

std::string render_verdicts(const obs::SloEngine& slo) {
  std::ostringstream out;
  for (const auto& v : slo.verdicts()) {
    out << v.window << ':' << v.value << ':' << obs::slo_state_name(v.state)
        << '\n';
  }
  return out.str();
}

TEST(SloEngine, GoldenVerdictSequenceOnBurstyRun) {
  StreamConfig config = bursty_config();
  config.obs.trace = true;
  config.obs.slo = "sojourn_p99<20,window=4,fast=2,slow=4";
  const auto outcome =
      run_stream(load_trace_fixture("bursty.qtrc", config), config);
  ASSERT_TRUE(outcome.slo);
  ASSERT_TRUE(outcome.metrics);
  // The slo window= option overrides the metrics window.
  EXPECT_EQ(outcome.metrics->window(), 4);

  // The pinned burn trajectory: the drain backlog builds until
  // sojourn_p99 crosses 20 at window 6, then burns through warning into
  // page for the rest of the run.
  EXPECT_EQ(render_verdicts(*outcome.slo),
            "0:4:ok\n"
            "1:7:ok\n"
            "2:7:ok\n"
            "3:16:ok\n"
            "4:19:ok\n"
            "5:18:ok\n"
            "6:26:warning\n"
            "7:30:page\n"
            "8:31:page\n"
            "9:32:page\n"
            "10:41:page\n"
            "11:43:page\n"
            "12:45:page\n"
            "13:52:page\n"
            "14:53:page\n"
            "15:54:page\n");
  EXPECT_FALSE(outcome.slo->compliant());
  EXPECT_EQ(outcome.slo->worst_state(), obs::SloState::kPage);

  // kSloState control-track events fire only on transitions: the first
  // window (ok), ok->warning, warning->page.
  ASSERT_TRUE(outcome.tracer);
  int slo_events = 0;
  for (const auto& e : outcome.tracer->merged()) {
    if (e.event.kind == static_cast<std::uint16_t>(obs::EventKind::kSloState)) {
      ++slo_events;
      EXPECT_EQ(e.track, obs::TrackKind::kControl);
    }
  }
  EXPECT_EQ(slo_events, 3);
}

TEST(SloEngine, SloEnabledExportsAreThreadCountInvariant) {
  // The PR 10 acceptance scenario: with SLO enabled (profiling off),
  // verdicts, trace, metrics, and the Prometheus snapshot are all
  // byte-identical at 1 vs 4 worker threads.
  StreamConfig config;
  config.lanes = 16;
  config.distance = 5;
  config.p = 0.01;
  config.rounds = 96;
  config.seed = 2021;
  config.engines = 4;
  config.policy = "least_loaded";
  config.admission = "codel";
  config.cycles_per_round = cycles_per_microsecond(40e6);
  config.obs.trace = true;
  config.obs.slo = "sojourn_p99<6,depth_p95<8,window=16";
  const SyndromeTrace trace = record_trace(config);

  std::string exports[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    config.threads = threads[i];
    const auto outcome = run_stream(trace, config);
    ASSERT_TRUE(outcome.tracer);
    ASSERT_TRUE(outcome.metrics);
    ASSERT_TRUE(outcome.slo);
    const std::string trace_path = temp_path("slo_invariant_trace.json");
    const std::string csv_path = temp_path("slo_invariant_metrics.csv");
    const std::string slo_path = temp_path("slo_invariant_slo.csv");
    const std::string prom_path = temp_path("slo_invariant_prom.txt");
    ASSERT_TRUE(obs::write_chrome_trace(*outcome.tracer, trace_path));
    ASSERT_TRUE(outcome.metrics->write_csv(csv_path));
    ASSERT_TRUE(outcome.slo->write_csv(slo_path));
    ASSERT_TRUE(obs::write_prom_snapshot(*outcome.metrics, outcome.slo.get(),
                                         prom_path));
    exports[i] = read_all(trace_path) + "\n--\n" + read_all(csv_path) +
                 "\n--\n" + read_all(slo_path) + "\n--\n" +
                 read_all(prom_path) + "\n--\n" + outcome.slo->summary_json();
    for (const auto& p : {trace_path, csv_path, slo_path, prom_path}) {
      std::remove(p.c_str());
    }
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(SloEngine, ZeroRoundRunStaysTame) {
  PlanarLattice lattice(3);
  TraceHeader header;
  header.distance = 3;
  header.lanes = 3;
  header.rounds = 0;
  header.checks = static_cast<std::uint32_t>(lattice.num_checks());
  header.data_qubits = static_cast<std::uint32_t>(lattice.num_data());
  const SyndromeTrace trace(header);

  StreamConfig config;
  config.lanes = 3;
  config.distance = 3;
  config.engines = 2;
  config.policy = "least_loaded";
  config.admission = "codel";
  config.obs.slo = "sojourn_p99<8";
  const auto outcome = run_stream(trace, config);
  ASSERT_TRUE(outcome.slo);
  ASSERT_TRUE(outcome.metrics);
  EXPECT_LE(outcome.metrics->windows(), 1);
  EXPECT_LE(outcome.slo->verdicts().size(), 1u);
  EXPECT_TRUE(outcome.slo->compliant());  // nothing ran, nothing paged
}

TEST(SloEngine, WindowLargerThanRunYieldsOnePartialVerdict) {
  StreamConfig config = bursty_config();
  config.obs.slo = "sojourn_p99<4,window=4096";
  const auto outcome = run_stream(config);
  ASSERT_TRUE(outcome.slo);
  ASSERT_TRUE(outcome.metrics);
  // The whole run fits one (partial) window: exactly one verdict, flushed
  // by finish() — the tail a tick-only registry would have dropped.
  EXPECT_EQ(outcome.metrics->windows(), 1);
  ASSERT_EQ(outcome.slo->verdicts().size(), 1u);
  EXPECT_TRUE(outcome.slo->verdicts()[0].violated);
}

TEST(Profiler, RecordsScopesAndWritesCsv) {
  obs::Profiler profiler(/*sample_ring=*/16);
  {
    obs::ScopedStage scope(&profiler, obs::Stage::kDispatchAssign);
    obs::ScopedStage inner(&profiler, obs::Stage::kReduction);
  }
  { obs::ScopedStage scope(&profiler, obs::Stage::kDispatchAssign); }
  // A null profiler is a safe no-op (the disabled hot path).
  { obs::ScopedStage scope(nullptr, obs::Stage::kLaneExecute); }

  const auto totals = profiler.totals();
  EXPECT_EQ(totals[0].calls, 2u);  // dispatch_assign
  EXPECT_EQ(totals[2].calls, 1u);  // reduction
  EXPECT_EQ(totals[1].calls, 0u);  // lane_execute untouched
  EXPECT_EQ(profiler.threads(), 1);

  // take_window_nanos drains: the second take with no new scopes is 0.
  EXPECT_GE(profiler.take_window_nanos(obs::Stage::kDispatchAssign), 0u);
  EXPECT_EQ(profiler.take_window_nanos(obs::Stage::kDispatchAssign), 0u);

  const auto samples = profiler.thread_samples(0);
  ASSERT_EQ(samples.size(), 3u);
  // Sorted by start time: the outer dispatch scope precedes its nested
  // reduction scope even though the inner one closed (recorded) first.
  EXPECT_LE(samples[0].start_ns, samples[1].start_ns);
  EXPECT_EQ(samples[0].stage, obs::Stage::kDispatchAssign);

  const std::string path = temp_path("profiler_stages.csv");
  ASSERT_TRUE(profiler.write_csv(path));
  const std::string text = read_all(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("stage,calls,threads,total_ns,mean_ns"),
            std::string::npos);
  EXPECT_NE(text.find("dispatch_assign,2,1,"), std::string::npos);
}

TEST(Profiler, ProfilingNeverPerturbsOutcomesOrTelemetry) {
  StreamConfig config = bursty_config();
  config.obs.metrics = true;  // exercise the kTelemetryClose stage too
  const auto plain = run_stream(config);
  config.obs.profile = true;
  const auto profiled = run_stream(config);
  ASSERT_TRUE(profiled.profiler);
  EXPECT_FALSE(plain.profiler);

  // Timing is observed, never consulted: outcomes and telemetry are
  // byte-identical with profiling on.
  EXPECT_EQ(plain.overflow_lanes, profiled.overflow_lanes);
  EXPECT_EQ(plain.failed_lanes, profiled.failed_lanes);
  EXPECT_EQ(plain.logical_failures, profiled.logical_failures);
  const std::string a = temp_path("prof_off_telemetry.csv");
  const std::string b = temp_path("prof_on_telemetry.csv");
  ASSERT_TRUE(plain.telemetry.write_csv(a));
  ASSERT_TRUE(profiled.telemetry.write_csv(b));
  EXPECT_EQ(read_all(a), read_all(b));
  std::remove(a.c_str());
  std::remove(b.c_str());

  // The run populated the taxonomy's hot stages.
  const auto totals = profiled.profiler->totals();
  EXPECT_GT(totals[static_cast<int>(obs::Stage::kDispatchAssign)].calls, 0u);
  EXPECT_GT(totals[static_cast<int>(obs::Stage::kLaneExecute)].calls, 0u);
  EXPECT_GT(totals[static_cast<int>(obs::Stage::kReduction)].calls, 0u);
  EXPECT_GT(totals[static_cast<int>(obs::Stage::kTelemetryClose)].calls, 0u);
}

TEST(Profiler, ProfMetricsColumnsAppearOnlyWhenProfiling) {
  StreamConfig config = bursty_config();
  config.obs.metrics = true;
  config.obs.metrics_window = 8;
  const auto plain = run_stream(config);
  config.obs.profile = true;
  const auto profiled = run_stream(config);

  const std::string a = temp_path("prof_cols_off.csv");
  const std::string b = temp_path("prof_cols_on.csv");
  ASSERT_TRUE(plain.metrics->write_csv(a));
  ASSERT_TRUE(profiled.metrics->write_csv(b));
  const std::string off_text = read_all(a);
  const std::string on_text = read_all(b);
  std::remove(a.c_str());
  std::remove(b.c_str());
  // prof_* columns ride the metrics CSV only when profiling is on — a
  // disabled run's export stays byte-stable against older goldens.
  EXPECT_EQ(off_text.find("prof_"), std::string::npos);
  EXPECT_NE(on_text.find("prof_lane_ns"), std::string::npos);
}

TEST(Postmortem, DumpWritesCompleteBundle) {
  // The tab in the dir name reaches config.json's dump_dir echo, which
  // must escape it to stay valid JSON.
  const std::string dir = temp_path("obs_bundle\ttest");
  StreamConfig config = bursty_config();
  config.obs.trace = true;
  config.obs.profile = true;
  config.obs.slo = "sojourn_p99<4,window=4";
  config.obs.dump_dir = dir;
  const auto outcome = run_stream(config);
  ASSERT_TRUE(obs::FlightRecorder::instance().armed());
  EXPECT_EQ(obs::FlightRecorder::instance().dir(), dir);

  // The SIGUSR1 request flag is a consumable edge, not a level.
  EXPECT_FALSE(obs::FlightRecorder::take_dump_request());
  obs::FlightRecorder::request_dump();
  EXPECT_TRUE(obs::FlightRecorder::take_dump_request());
  EXPECT_FALSE(obs::FlightRecorder::take_dump_request());

  ASSERT_TRUE(obs::FlightRecorder::instance().dump("test"));
  for (const char* name : {"manifest.json", "config.json", "trace.json",
                           "metrics.csv", "last_window.csv", "profile.csv",
                           "slo.csv"}) {
    const std::string text = read_all(dir + "/" + name);
    EXPECT_FALSE(text.empty()) << name;
  }
  const std::string manifest = read_all(dir + "/manifest.json");
  EXPECT_NE(manifest.find("\"reason\": \"test\""), std::string::npos);
  EXPECT_NE(manifest.find("\"slo\""), std::string::npos);
  const std::string config_echo = read_all(dir + "/config.json");
  EXPECT_NE(config_echo.find("\"lanes\": 6"), std::string::npos);
  EXPECT_NE(config_echo.find("\"admission\": \"codel\""), std::string::npos);
  EXPECT_NE(config_echo.find("obs_bundle\\ttest\""), std::string::npos)
      << config_echo;
  ASSERT_TRUE(!config_echo.empty() && config_echo.back() == '\n');
  EXPECT_EQ(std::count_if(config_echo.begin(), config_echo.end() - 1,
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << config_echo;

  obs::FlightRecorder::instance().disarm();
  EXPECT_FALSE(obs::FlightRecorder::instance().armed());
  EXPECT_FALSE(obs::FlightRecorder::instance().dump("disarmed"));
}

}  // namespace
}  // namespace qec
