// Soak bench for the streaming decode service: many logical-qubit lanes
// served by a shared pool of K on-line QECOOL engines, with queue-depth,
// latency, and scheduling telemetry. The fleet-scale version of Fig 7's
// keep-up question: at a given clock and hardware budget, how many of N
// concurrent streams survive a long run without Reg overflow?
//
// --engines=K (0 = one per lane) sizes the pool and --policy picks the
// lane scheduler (dedicated | round_robin | least_loaded | fq); a static
// policy's pool runs in windows of rounds, grants computed per lane.
// --admission=pause swaps Reg-overflow lane death for graceful load
// shedding (freeze + drain + re-admit), --admission=codel freezes on
// sustained sojourn latency instead of queue depth (the CoDel law in
// logical rounds; pair with --policy=fq for FQ-CoDel fair scheduling and
// --latency-csv for per-lane end-to-end percentiles), and --budget-w
// caps the pool at the largest K that fits the 4-K power budget (see
// --help).
//
// With a fixed seed every CSV is byte-identical for any --threads value,
// and a run replayed from --trace-in reproduces the recorded run's
// per-lane overflow/drain outcomes exactly.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"

namespace {

constexpr const char* kSummary =
    "soak the streaming decode service: N concurrent on-line lanes served "
    "by a shared pool of K QECOOL engines, with full telemetry CSVs";

constexpr const char* kOptions =
    "  --lanes=64            concurrent logical-qubit streams (N)\n"
    "  --d=7                 code distance\n"
    "  --p=0.01              physical error rate (p_data = p_meas)\n"
    "  --rounds=256          noisy rounds per lane\n"
    "  --mhz=2000            decoder clock in MHz (cycle budget per round)\n"
    "  --engine=qecool       lane engine spec (e.g. qecool:reg_depth=4)\n"
    "  --engines=0           pool size K (0 = one engine per lane)\n"
    "  --policy=dedicated    scheduling policy spec: dedicated |\n"
    "                        round_robin[:offset=N] | least_loaded |\n"
    "                        fq[:quantum=CYCLES]\n"
    "  --admission=overflow  admission control spec: overflow |\n"
    "                        pause[:high=H,low=L] |\n"
    "                        codel[:target=T,interval=I] (rounds)\n"
    "  --budget-w=0          4-K power budget in watts; > 0 caps K\n"
    "  --seed=2021           trace RNG seed\n"
    "  --drain=1000          max drain rounds after the trace ends\n"
    "  --threads=1           worker threads (0 = all cores; never changes "
    "results)\n"
    "  --csv=FILE            per-lane telemetry CSV\n"
    "  --sched-csv=FILE      per-engine / per-lane scheduling report CSV\n"
    "  --timeline-csv=FILE   per-round aggregate depth timeline CSV\n"
    "  --latency-csv=FILE    per-lane end-to-end sojourn latency CSV\n"
    "  --trace-out=FILE      save the recorded syndrome trace ('QTRC')\n"
    "  --trace-in=FILE       replay a previously recorded trace\n"
    "  --dump-obs-on-exit[=DIR]\n"
    "                        arm the postmortem flight recorder: dump the\n"
    "                        obs bundle to DIR (default obs_bundle) at\n"
    "                        exit, on fatal signals, and on SIGUSR1\n";

}  // namespace

int main(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  const std::string options = kOptions + std::string(qec::bench::kObsOptions);
  if (qec::handle_help(args, "stream_soak", kSummary, options.c_str())) return 0;

  try {
    qec::StreamConfig config;
    config.lanes = static_cast<int>(args.get_int_or("lanes", 64));
    config.distance = static_cast<int>(args.get_int_or("d", 7));
    config.p = args.get_double_or("p", 0.01);
    config.rounds = static_cast<int>(args.get_int_or("rounds", 256));
    config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 2021));
    config.engine = args.get_or("engine", "qecool");
    config.cycles_per_round =
        qec::cycles_per_microsecond(args.get_double_or("mhz", 2000.0) * 1e6);
    config.max_drain_rounds = static_cast<int>(args.get_int_or("drain", 1000));
    config.engines = static_cast<int>(args.get_int_or("engines", 0));
    config.policy = args.get_or("policy", "dedicated");
    config.admission = args.get_or("admission", "overflow");
    config.budget_w = args.get_double_or("budget-w", 0.0);
    config.threads = qec::threads_override(args, 1);
    qec::bench::ObsCli obs_cli(args, config.obs);
    const auto dump_dir =
        qec::optional_value_flag(args, "dump-obs-on-exit", "obs_bundle");
    if (dump_dir) {
      config.obs.dump_dir = *dump_dir;
      qec::obs::FlightRecorder::install_signal_handlers();
    }

    qec::bench::print_header(
        "Stream soak: N concurrent on-line lanes vs a shared decoder pool",
        "Fig 7 scaled out — per-lane overflow/drain under sustained load");

    // Validate every flag and resolve the config before recording a trace,
    // so a typo costs nothing; a replayed trace resolves against its own
    // lane count and distance as soon as it is loaded.
    const std::string trace_in = args.get_or("trace-in", "");
    const std::string trace_out = args.get_or("trace-out", "");
    const std::string csv = args.get_or("csv", "");
    const std::string sched_csv = args.get_or("sched-csv", "");
    const std::string timeline_csv = args.get_or("timeline-csv", "");
    const std::string latency_csv = args.get_or("latency-csv", "");
    qec::reject_unread(args);

    qec::SyndromeTrace trace;
    if (!trace_in.empty()) {
      trace = qec::SyndromeTrace::load(trace_in);
      qec::resolve_stream(config, trace.lanes(),
                          static_cast<int>(trace.header().distance));
      std::printf("replaying %s: %d lanes, d=%u, %d rounds, p=%g\n\n",
                  trace_in.c_str(), trace.lanes(), trace.header().distance,
                  trace.rounds(), trace.header().p_data);
    } else {
      qec::resolve_stream(config, config.lanes, config.distance);
      trace = qec::record_trace(config);
    }

    const auto start = std::chrono::steady_clock::now();
    const qec::StreamOutcome outcome = qec::run_stream(trace, config);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    if (!trace_out.empty()) {
      trace.save(trace_out);
      std::printf("trace recorded to %s\n", trace_out.c_str());
    }

    const auto all = outcome.telemetry.aggregate();
    qec::TextTable table({"metric", "value"});
    table.add_row({"lanes", std::to_string(outcome.lanes)});
    table.add_row({"pool engines / policy",
                   std::to_string(outcome.telemetry.engines) + " / " +
                       config.policy});
    table.add_row({"admission", config.admission});
    table.add_row({"all-zero rounds / pushes",
                   std::to_string(all.cache.zero_rounds) + " / " +
                       std::to_string(all.cache.zero_pushes)});
    if (outcome.telemetry.watts > 0) {
      std::string watts = qec::TextTable::fmt(outcome.telemetry.watts * 1e6, 3) + " uW";
      if (config.budget_w > 0) {
        watts += " of " + qec::TextTable::fmt(config.budget_w * 1e6, 3) + " uW";
      }
      table.add_row({"pool power (ERSFQ model)", watts});
    }
    table.add_row({"rounds streamed / lane", std::to_string(trace.rounds())});
    table.add_row({"budget (cycles/round)",
                   qec::TextTable::fmt(config.cycles_per_round, 2)});
    table.add_row({"overflowed lanes", std::to_string(outcome.overflow_lanes)});
    table.add_row({"drained lanes", std::to_string(outcome.drained_lanes)});
    table.add_row({"logical failures", std::to_string(outcome.logical_failures)});
    table.add_row({"failed lanes (any cause)",
                   std::to_string(outcome.failed_lanes)});
    table.add_row({"popped layers (all lanes)", std::to_string(all.popped_layers)});
    table.add_row({"layer cycles p50/p95/p99",
                   std::to_string(all.layer_cycles.percentile(50)) + " / " +
                       std::to_string(all.layer_cycles.percentile(95)) + " / " +
                       std::to_string(all.layer_cycles.percentile(99))});
    table.add_row({"sojourn rounds p50/p95/p99",
                   std::to_string(all.sojourn_rounds.percentile(50)) + " / " +
                       std::to_string(all.sojourn_rounds.percentile(95)) + " / " +
                       std::to_string(all.sojourn_rounds.percentile(99))});
    table.add_row({"queue depth mean / max",
                   qec::TextTable::fmt(all.mean_depth(), 3) + " / " +
                       std::to_string(all.max_depth())});
    table.add_row({"starved lane-rounds", std::to_string(all.starved_rounds)});
    table.add_row({"paused lane-rounds / lanes",
                   std::to_string(all.paused_rounds) + " / " +
                       std::to_string(outcome.telemetry.ever_paused_lanes())});
    table.add_row({"service fairness (Jain)",
                   qec::TextTable::fmt(outcome.telemetry.fairness_index(), 4)});
    table.add_row({"total working cycles", std::to_string(all.total_cycles)});
    if (outcome.tracer) {
      table.add_row({"obs events (emitted / dropped)",
                     std::to_string(outcome.tracer->emitted()) + " / " +
                         std::to_string(outcome.tracer->dropped())});
    }
    if (outcome.metrics) {
      table.add_row({"obs metrics windows (W rounds)",
                     std::to_string(outcome.metrics->windows()) + " (" +
                         std::to_string(outcome.metrics->window()) + ")"});
    }
    if (outcome.slo) {
      for (const auto& s : outcome.slo->summaries()) {
        table.add_row(
            {"slo " + s.spec,
             std::string(qec::obs::slo_state_name(s.state)) + " (" +
                 std::to_string(s.violations) + "/" +
                 std::to_string(s.windows) + " bad windows, " +
                 std::to_string(s.pages) + " paged)"});
      }
      table.add_row({"slo compliant (never paged)",
                     outcome.slo->compliant() ? "yes" : "no"});
    }
    table.print();
    std::printf("\nwall-clock %.1f ms (--threads=%d)\n", ms, config.threads);

    {
      // Export time shows up as the kTraceExport stage when profiling.
      qec::obs::ScopedStage prof(outcome.profiler.get(),
                                 qec::obs::Stage::kTraceExport);
      using qec::bench::report_written;
      if (!csv.empty() &&
          !report_written(outcome.telemetry.write_csv(csv), "telemetry", csv)) {
        return 1;
      }
      if (!sched_csv.empty() &&
          !report_written(outcome.telemetry.write_schedule_csv(sched_csv),
                          "schedule report", sched_csv)) {
        return 1;
      }
      if (!timeline_csv.empty() &&
          !report_written(outcome.telemetry.write_timeline_csv(timeline_csv),
                          "round timeline", timeline_csv)) {
        return 1;
      }
      if (!latency_csv.empty() &&
          !report_written(outcome.telemetry.write_latency_csv(latency_csv),
                          "sojourn latency report", latency_csv)) {
        return 1;
      }
    }
    obs_cli.keep(outcome);
    if (!obs_cli.write()) return 1;
    if (dump_dir && qec::obs::FlightRecorder::instance().dump("exit")) {
      std::printf("obs bundle dumped to %s\n", dump_dir->c_str());
    }
    return outcome.overflow_lanes == outcome.lanes ? 2 : 0;
  } catch (const std::exception& e) {
    const int status = qec::report_failure("stream_soak", e);
    // Best-effort postmortem: armed only when --dump-obs-on-exit was given
    // and run_stream got far enough to attach the obs objects.
    if (qec::obs::FlightRecorder::instance().dump(
            std::string("exception: ") + e.what())) {
      std::fprintf(stderr, "obs bundle dumped to %s\n",
                   qec::obs::FlightRecorder::instance().dir().c_str());
    }
    return status;
  }
}
