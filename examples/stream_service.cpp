// Streaming decode service walk-through: record (or load) a multi-lane
// syndrome trace, stream every lane through its own on-line QECOOL engine
// round-by-round, and print one telemetry row per lane. Demonstrates the
// record/replay split: run once with --trace-out, then again with
// --trace-in and any --threads value — the per-lane outcomes match.
//
//   ./stream_service [--lanes=8] [--d=5] [--p=0.01] [--mhz=1000]
//                    [--rounds=32] [--engine=qecool] [--engines=0]
//                    [--policy=dedicated] [--seed=7] [--threads=1]
//                    [--trace-out=s.qtrc] [--trace-in=s.qtrc]
//                    [--csv=lanes.csv]
//
// --engines=K shrinks the decoder pool below one engine per lane and
// --policy picks the lane scheduler (dedicated | round_robin |
// least_loaded | fq); the per-lane "served/starved" column then shows how
// the pool's cycles were spread across lanes.
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"

namespace {

constexpr const char* kSummary =
    "walk through the streaming decode service: record or replay a "
    "multi-lane syndrome trace and print one telemetry row per lane";

constexpr const char* kOptions =
    "  --lanes=8             concurrent logical-qubit streams\n"
    "  --d=5                 code distance\n"
    "  --p=0.01              physical error rate (p_data = p_meas)\n"
    "  --rounds=32           noisy rounds per lane\n"
    "  --mhz=1000            decoder clock in MHz\n"
    "  --engine=qecool       lane engine spec\n"
    "  --engines=0           pool size K (0 = one engine per lane)\n"
    "  --policy=dedicated    scheduling policy spec: dedicated |\n"
    "                        round_robin[:offset=N] | least_loaded |\n"
    "                        fq[:quantum=CYCLES]\n"
    "  --admission=overflow  admission control spec: overflow |\n"
    "                        pause[:high=H,low=L] |\n"
    "                        codel[:target=T,interval=I] (rounds)\n"
    "  --budget-w=0          4-K power budget in watts; > 0 caps K\n"
    "  --seed=7              trace RNG seed\n"
    "  --threads=1           worker threads (0 = all cores)\n"
    "  --trace-out=FILE      save the recorded trace\n"
    "  --trace-in=FILE       replay a previously recorded trace\n"
    "  --csv=FILE            per-lane telemetry CSV\n";

}  // namespace

int main(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "stream_service", kSummary, kOptions)) return 0;
  qec::StreamConfig config;
  config.lanes = static_cast<int>(args.get_int_or("lanes", 8));
  config.distance = static_cast<int>(args.get_int_or("d", 5));
  config.p = args.get_double_or("p", 0.01);
  config.rounds = static_cast<int>(args.get_int_or("rounds", 32));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 7));
  config.engine = args.get_or("engine", "qecool");
  config.cycles_per_round =
      qec::cycles_per_microsecond(args.get_double_or("mhz", 1000.0) * 1e6);
  config.engines = static_cast<int>(args.get_int_or("engines", 0));
  config.policy = args.get_or("policy", "dedicated");
  config.admission = args.get_or("admission", "overflow");
  config.budget_w = args.get_double_or("budget-w", 0.0);
  config.threads = qec::threads_override(args, 1);

  try {
    qec::SyndromeTrace trace;
    const std::string trace_in = args.get_or("trace-in", "");
    if (!trace_in.empty()) {
      trace = qec::SyndromeTrace::load(trace_in);
      std::printf("replaying trace %s\n", trace_in.c_str());
    } else {
      trace = qec::record_trace(config);
    }
    std::printf("streaming %d lanes, d=%u, %d rounds each, p=%g, budget "
                "%.2f cycles/round, engine '%s'\n",
                trace.lanes(), trace.header().distance, trace.rounds(),
                trace.header().p_data, config.cycles_per_round,
                config.engine.c_str());

    const auto outcome = qec::run_stream(trace, config);
    std::printf("decoder pool: %d engines, policy '%s'\n\n",
                outcome.telemetry.engines, config.policy.c_str());

    qec::TextTable table({"lane", "outcome", "drain rounds", "popped",
                          "served/starved/paused", "cycles p50/p99",
                          "depth mean/max"});
    for (const auto& lane : outcome.telemetry.lanes) {
      const char* verdict = lane.overflow          ? "OVERFLOW"
                            : !lane.drained        ? "undrained"
                            : lane.logical_failure ? "logical error"
                                                   : "ok";
      table.add_row({std::to_string(lane.lane), verdict,
                     std::to_string(lane.drain_rounds),
                     std::to_string(lane.popped_layers),
                     std::to_string(lane.served_rounds) + " / " +
                         std::to_string(lane.starved_rounds) + " / " +
                         std::to_string(lane.paused_rounds),
                     std::to_string(lane.cycle_percentile(50)) + " / " +
                         std::to_string(lane.cycle_percentile(99)),
                     qec::TextTable::fmt(lane.mean_depth(), 2) + " / " +
                         std::to_string(lane.max_depth())});
    }
    table.print();
    std::printf("\n%d/%d lanes drained, %d overflowed, %d logical failures, "
                "fairness %.4f\n",
                outcome.drained_lanes, outcome.lanes, outcome.overflow_lanes,
                outcome.logical_failures,
                outcome.telemetry.fairness_index());

    const std::string trace_out = args.get_or("trace-out", "");
    if (!trace_out.empty()) {
      trace.save(trace_out);
      std::printf("trace saved to %s (replay with --trace-in=%s)\n",
                  trace_out.c_str(), trace_out.c_str());
    }
    const std::string csv = args.get_or("csv", "");
    if (!csv.empty()) {
      if (!outcome.telemetry.write_csv(csv)) {
        std::fprintf(stderr, "cannot write %s\n", csv.c_str());
        return 1;
      }
      std::printf("telemetry saved to %s\n", csv.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    return qec::report_failure("stream_service", e);
  }
}
