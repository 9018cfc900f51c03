// Lane-count scaling curve of the streaming decode service: how does
// wall-clock per streamed round — and aggregate decoded-round throughput —
// scale as the fleet grows from dozens to thousands of concurrent lanes?
// This is the ROADMAP's "sweep lanes in {64 .. 4096} x clock" item: one
// chip hosts ~2,500 logical patches, so the simulator must stay fast at
// fleet scale, and this bench charts exactly where it stops doing so.
//
// For every (lanes, clock) cell a fresh trace is recorded (the trace is a
// function of the lane count) and replayed once; the CSV reports the
// wall-clock of the replay, microseconds per streamed lane-round, and
// lane-rounds decoded per second, plus the outcome split so a cell where
// lanes start dying is visible next to its throughput. Simulation
// outcomes are unaffected by --threads; only wall-clock is.
#include <chrono>
#include <cstdio>
#include <climits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "qecool/online_runner.hpp"
#include "stream/service.hpp"

namespace {

using qec::bench::fmt;
using qec::split_doubles;

constexpr const char* kSummary =
    "sweep the streaming service over lane count x decoder clock and chart "
    "wall-clock per streamed round and aggregate decoded-round throughput";

constexpr const char* kOptions =
    "  --lanes=64,256,1024,4096   lane counts to sweep (list)\n"
    "  --mhz=10,40,160       decoder clocks to sweep (MHz, list)\n"
    "  --d=5                 code distance\n"
    "  --p=0.01              physical error rates to sweep (list)\n"
    "  --rounds=64           noisy rounds per lane\n"
    "  --engines=0           pool size K (0 = one engine per lane)\n"
    "  --policy=dedicated    scheduling policy spec: dedicated |\n"
    "                        round_robin[:offset=N] | least_loaded |\n"
    "                        fq[:quantum=CYCLES]\n"
    "  --engine=qecool       lane engine spec\n"

    "  --seed=2021           trace RNG seed\n"
    "  --drain=1000          max drain rounds after the trace ends\n"
    "  --threads=1           worker threads (0 = all cores; never changes "
    "results)\n"
    "  --csv=FILE            write the scaling CSV to FILE\n"
    "  (the obs flags below apply to every cell and write the LAST cell)\n";

}  // namespace

int main(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  const std::string options = kOptions + std::string(qec::bench::kObsOptions);
  if (qec::handle_help(args, "lane_scaling", kSummary, options.c_str())) return 0;

  try {
    qec::StreamConfig base;
    base.distance = static_cast<int>(args.get_int_or("d", 5));
    base.rounds = static_cast<int>(args.get_int_or("rounds", 64));
    base.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 2021));
    base.engine = args.get_or("engine", "qecool");
    base.policy = args.get_or("policy", "dedicated");
    base.engines = static_cast<int>(args.get_int_or("engines", 0));
    base.max_drain_rounds = static_cast<int>(args.get_int_or("drain", 1000));
    base.threads = qec::threads_override(args, 1);
    qec::bench::ObsCli obs_cli(args, base.obs);

    qec::bench::print_header(
        "Lane scaling: wall-clock per streamed round vs fleet size",
        "the ROADMAP lanes x clock curve — where does fleet-scale replay "
        "stop being cheap?");

    const auto lane_counts =
        qec::int_list_flag_in(args, "lanes", "64,256,1024,4096", 1, INT_MAX);
    const auto clocks_mhz = split_doubles("mhz", args.get_or("mhz", "10,40,160"));
    const auto p_list = split_doubles("p", args.get_or("p", "0.01"));
    const std::string csv_path = args.get_or("csv", "");
    qec::reject_unread(args);
    // Check and resolve every (p, lanes, clock) cell before the first
    // trace is recorded, so no cell fails after earlier rows are written.
    struct Cell {
      qec::StreamConfig config;
      double mhz = 0.0;
    };
    std::vector<Cell> cells;
    for (const double p : p_list) {
      for (const int lanes : lane_counts) {
        for (const double mhz : clocks_mhz) {
          qec::StreamConfig config = base;
          config.p = p;
          config.lanes = lanes;
          config.cycles_per_round = qec::cycles_per_microsecond(mhz * 1e6);
          qec::validate_record(config);
          qec::resolve_stream(config, config.lanes, base.distance);
          cells.push_back({config, mhz});
        }
      }
    }
    qec::CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path,
                       {"lanes", "d", "p", "mhz", "engines", "policy",
                        "rounds", "record_ms", "replay_ms",
                        "streamed_lane_rounds", "us_per_lane_round",
                        "lane_rounds_per_sec", "overflow_lanes",
                        "failed_lanes", "failed_frac", "zero_rounds",
                        "zero_pushes"});

    qec::TextTable table({"lanes", "p", "mhz", "K", "replay ms",
                          "us/lane-round", "lane-rounds/s", "failed"});
    for (const Cell& cell : cells) {
      const qec::StreamConfig& config = cell.config;
      const double mhz = cell.mhz;
      const auto record_start = std::chrono::steady_clock::now();
      const qec::SyndromeTrace trace = qec::record_trace(config);
      const double record_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - record_start)
              .count();

      const auto replay_start = std::chrono::steady_clock::now();
      const qec::StreamOutcome outcome = qec::run_stream(trace, config);
      const double replay_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - replay_start)
              .count();

      const auto all = outcome.telemetry.aggregate();
      const std::int64_t lane_rounds =
          static_cast<std::int64_t>(all.rounds_streamed) +
          all.drain_rounds;
      const double us_per_round =
          lane_rounds ? replay_ms * 1e3 / static_cast<double>(lane_rounds)
                      : 0.0;
      const double rounds_per_sec =
          replay_ms > 0
              ? static_cast<double>(lane_rounds) / (replay_ms * 1e-3)
              : 0.0;
      const double failed_frac =
          static_cast<double>(outcome.failed_lanes) /
          static_cast<double>(outcome.lanes);

      if (csv.ok()) {
        csv.add_row(
            {std::to_string(outcome.lanes), std::to_string(base.distance),
             fmt(config.p, "%.6g"), fmt(mhz, "%.6g"),
             std::to_string(outcome.telemetry.engines), base.policy,
             std::to_string(trace.rounds()), fmt(record_ms, "%.3f"),
             fmt(replay_ms, "%.3f"), std::to_string(lane_rounds),
             fmt(us_per_round, "%.4f"), fmt(rounds_per_sec, "%.6g"),
             std::to_string(outcome.overflow_lanes),
             std::to_string(outcome.failed_lanes), fmt(failed_frac),
             std::to_string(all.cache.zero_rounds),
             std::to_string(all.cache.zero_pushes)});
        csv.flush();
      }
      table.add_row({std::to_string(outcome.lanes), fmt(config.p, "%.4g"),
                     fmt(mhz, "%.6g"),
                     std::to_string(outcome.telemetry.engines),
                     fmt(replay_ms, "%.1f"), fmt(us_per_round, "%.3f"),
                     fmt(rounds_per_sec, "%.4g"),
                     std::to_string(outcome.failed_lanes) + "/" +
                         std::to_string(outcome.lanes)});
      obs_cli.keep(outcome);
    }
    table.print();
    std::printf("\n(--threads=%d; outcomes are unaffected by it)\n",
                base.threads);
    if (!csv_path.empty() &&
        !qec::bench::report_written(csv.flush(), "scaling curve", csv_path)) {
      return 1;
    }
    return obs_cli.write(" (last cell)") ? 0 : 1;
  } catch (const std::exception& e) {
    return qec::report_failure("lane_scaling", e);
  }
}
