// Keep-up frontier of the shared decoder-engine pool: sweep the hardware
// budget K/N (engines per lane) against the decoder clock for each lane
// scheduling policy, and chart what fraction of N concurrent streams fail
// (Reg overflow, failure to drain, or logical error). This is the "how
// much decode hardware per chip" question the ROADMAP poses: dedicating
// one QECOOL engine to each of ~2,500 patches is the K == N corner; the
// sweep shows how far K can shrink before lanes start dying, and how much
// a backpressure-aware scheduler buys over a fixed rotation.
//
// Every cell also carries its *watts*: the modelled ERSFQ dissipation of
// the K-engine pool at that clock (src/stream/admission.hpp), so the CSV
// charts failed-lane fraction against power — how many lanes survive per
// watt at each clock — not just against K/N. --budget-w=W caps every cell
// at the largest K whose pool fits W (the Table V question, live), and
// --admission=overflow,pause,codel compares load shedding styles cell by
// cell — depth-triggered vs sojourn-triggered (CoDel) freezing.
//
// One trace is recorded per run and replayed through every (admission,
// policy, K, clock) cell, so cells differ only in the service
// configuration. The CSV has one row per cell: failed-lane fraction,
// overflow/drain/logical split, pool watts, surviving lanes per watt,
// pool utilization, Jain fairness, starved and paused lane-rounds, and
// aggregate end-to-end sojourn percentiles (p50/p95/p99/max, rounds);
// --latency-csv adds per-lane latency rows for every cell.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
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
using qec::split_list;

/// Splits a comma-separated list of *specs*, re-attaching option
/// fragments to their spec: "overflow,pause:high=6,low=2" is the two
/// specs {"overflow", "pause:high=6,low=2"}, not four items. A fragment
/// that contains '=' but no ':' can only be a key=value option of the
/// previous spec (names never contain '='; a new spec with options
/// carries its own ':').
std::vector<std::string> split_specs(const std::string& text) {
  std::vector<std::string> items;
  for (auto& piece : split_list(text)) {
    const bool option_fragment = piece.find('=') != std::string::npos &&
                                 piece.find(':') == std::string::npos;
    if (option_fragment && !items.empty()) {
      items.back() += "," + piece;
    } else {
      items.push_back(std::move(piece));
    }
  }
  return items;
}

constexpr const char* kSummary =
    "sweep the shared decoder pool over K/N x clock x policy x admission "
    "and chart failed-lane fraction against modelled pool watts";

constexpr const char* kOptions =
    "  --lanes=32            concurrent logical-qubit streams (N)\n"
    "  --d=5                 code distance\n"
    "  --p=0.01              physical error rate (p_data = p_meas)\n"
    "  --rounds=128          noisy rounds per lane\n"
    "  --mhz=10,40,160       decoder clocks to sweep (MHz, list)\n"
    "  --fractions=...       K/N grid (default 0.125,0.25,0.375,0.5,0.75,1)\n"
    "  --engines=K           sweep a single pool size instead of --fractions\n"
    "  --policies=round_robin,least_loaded   scheduling policy specs (list:\n"
    "                        dedicated | round_robin[:offset=N] |\n"
    "                        least_loaded | fq[:quantum=CYCLES])\n"
    "  --admission=overflow  admission specs (list: overflow |\n"
    "                        pause[:high=H,low=L] |\n"
    "                        codel[:target=T,interval=I], rounds)\n"
    "  --budget-w=0          4-K power budget in watts; > 0 caps K per cell\n"
    "  --engine=qecool       lane engine spec\n"
    "  --seed=2021           trace RNG seed\n"
    "  --drain=1000          max drain rounds after the trace ends\n"
    "  --threads=1           worker threads (0 = all cores; never changes "
    "results)\n"
    "  --csv=FILE            write the sweep CSV to FILE\n"
    "  --latency-csv=FILE    per-lane sojourn latency rows for every cell\n"
    "  (the obs flags below apply to every cell and write the LAST cell)\n";

}  // namespace

int main(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  const std::string options = kOptions + std::string(qec::bench::kObsOptions);
  if (qec::handle_help(args, "pool_scaling", kSummary, options.c_str())) return 0;

  try {
    qec::StreamConfig base;
    base.lanes = static_cast<int>(args.get_int_or("lanes", 32));
    base.distance = static_cast<int>(args.get_int_or("d", 5));
    base.p = args.get_double_or("p", 0.01);
    base.rounds = static_cast<int>(args.get_int_or("rounds", 128));
    base.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 2021));
    base.engine = args.get_or("engine", "qecool");
    base.max_drain_rounds = static_cast<int>(args.get_int_or("drain", 1000));
    base.budget_w = args.get_double_or("budget-w", 0.0);
    base.threads = qec::threads_override(args, 1);
    qec::bench::ObsCli obs_cli(args, base.obs);

    qec::bench::print_header(
        "Pool scaling: K shared decoder engines serving N lanes",
        "failed-lane fraction over K/N x clock, per scheduling policy");

    const auto clocks_mhz = split_doubles("mhz", args.get_or("mhz", "10,40,160"));
    const auto policies =
        split_specs(args.get_or("policies", "round_robin,least_loaded"));
    const auto admissions = split_specs(args.get_or("admission", "overflow"));
    const std::string csv_path = args.get_or("csv", "");
    const std::string latency_path = args.get_or("latency-csv", "");

    // Pool sizes: a single --engines=K, or the K/N fraction grid. The grid
    // is read either way: --engines overrides it, it is not unknown.
    const std::string fractions =
        args.get_or("fractions", "0.125,0.25,0.375,0.5,0.75,1");
    std::vector<int> pool_sizes;
    if (const auto fixed = args.get_int("engines")) {
      pool_sizes.push_back(static_cast<int>(*fixed));
    } else {
      for (const double f : split_doubles("fractions", fractions)) {
        const int k = std::clamp(
            static_cast<int>(std::lround(f * base.lanes)), 1, base.lanes);
        if (pool_sizes.empty() || pool_sizes.back() != k) pool_sizes.push_back(k);
      }
    }

    qec::reject_unread(args);
    // Resolve every (admission, policy, K, clock) cell before the trace is
    // recorded, so nothing throws mid-sweep leaving a partial CSV. With
    // --budget-w, several requested K collapse onto the same power-capped
    // pool; each distinct (admission, policy, clock, K) cell runs once
    // instead of re-recording identical rows.
    struct Cell {
      qec::StreamConfig config;
      double mhz = 0.0;
    };
    std::vector<Cell> cells;
    std::set<std::string> seen;
    int capped_cells = 0;
    for (const auto& admission : admissions) {
      for (const auto& policy : policies) {
        for (const int engines : pool_sizes) {
          for (const double mhz : clocks_mhz) {
            qec::StreamConfig config = base;
            config.policy = policy;
            config.admission = admission;
            config.engines = engines;
            config.cycles_per_round = qec::cycles_per_microsecond(mhz * 1e6);
            const int k =
                qec::resolve_stream(config, base.lanes, base.distance).engines;
            // --engines=0 asks for one engine per lane.
            if (k < (engines > 0 ? engines : base.lanes)) ++capped_cells;
            if (seen.insert(admission + "|" + policy + "|" + fmt(mhz, "%.9g") +
                            "|" + std::to_string(k))
                    .second) {
              cells.push_back({config, mhz});
            }
          }
        }
      }
    }

    const qec::SyndromeTrace trace = qec::record_trace(base);
    std::printf("trace: %d lanes, d=%d, %d rounds, p=%g, seed %llu\n\n",
                trace.lanes(), base.distance, trace.rounds(), base.p,
                static_cast<unsigned long long>(base.seed));

    qec::CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path,
                       {"policy", "admission", "lanes", "engines", "k_over_n",
                        "mhz", "budget", "watts", "budget_w",
                        "overflow_lanes", "undrained_lanes",
                        "logical_failures", "failed_lanes", "failed_frac",
                        "surviving_lanes", "lanes_per_watt", "utilization",
                        "fairness", "starved_rounds", "paused_rounds",
                        "soj_p50", "soj_p95", "soj_p99", "soj_max"});

    qec::CsvWriter latency_csv(
        latency_path.empty() ? "/dev/null" : latency_path,
        {"policy", "admission", "lanes", "engines", "mhz", "lane", "samples",
         "soj_p50", "soj_p95", "soj_p99", "soj_max"});

    qec::TextTable table({"policy", "admission", "K/N", "mhz", "watts",
                          "failed", "overflow", "paused", "soj_p99",
                          "fairness", "util"});
    const auto start = std::chrono::steady_clock::now();
    for (const Cell& cell : cells) {
      const qec::StreamConfig& config = cell.config;
      const double mhz = cell.mhz;
      const std::string& policy = config.policy;
      const std::string& admission = config.admission;
      const qec::StreamOutcome outcome = qec::run_stream(trace, config);

      // run_stream may have shed K to fit --budget-w; chart what ran.
      const int ran_engines = outcome.telemetry.engines;
      const double watts = outcome.telemetry.watts;
      const auto all = outcome.telemetry.aggregate();
      const double util = outcome.telemetry.pool_utilization();
      const double k_over_n = static_cast<double>(ran_engines) /
                              static_cast<double>(outcome.lanes);
      const double failed_frac =
          static_cast<double>(outcome.failed_lanes) /
          static_cast<double>(outcome.lanes);
      const int surviving = outcome.lanes - outcome.failed_lanes;
      const double lanes_per_watt =
          watts > 0 ? static_cast<double>(surviving) / watts : 0.0;
      const int undrained =
          static_cast<int>(outcome.telemetry.lanes.size()) -
          outcome.drained_lanes - outcome.overflow_lanes;
      const double fairness = outcome.telemetry.fairness_index();

      if (csv.ok()) {
        csv.add_row(
            {policy, admission, std::to_string(outcome.lanes),
             std::to_string(ran_engines), fmt(k_over_n),
             fmt(mhz, "%.6g"), fmt(config.cycles_per_round, "%.6g"),
             fmt(watts, "%.6g"), fmt(base.budget_w, "%.6g"),
             std::to_string(outcome.overflow_lanes),
             std::to_string(undrained),
             std::to_string(outcome.logical_failures),
             std::to_string(outcome.failed_lanes), fmt(failed_frac),
             std::to_string(surviving), fmt(lanes_per_watt, "%.6g"),
             fmt(util), fmt(fairness),
             std::to_string(all.starved_rounds),
             std::to_string(all.paused_rounds),
             std::to_string(all.sojourn_rounds.percentile(50)),
             std::to_string(all.sojourn_rounds.percentile(95)),
             std::to_string(all.sojourn_rounds.percentile(99)),
             std::to_string(all.sojourn_rounds.max())});
        csv.flush();
      }
      if (!latency_path.empty() && latency_csv.ok()) {
        const auto emit_latency = [&](const qec::LaneTelemetry& t,
                                      const std::string& label) {
          const qec::ValueCounts& soj = t.sojourn_rounds;
          latency_csv.add_row(
              {policy, admission, std::to_string(outcome.lanes),
               std::to_string(ran_engines), fmt(mhz, "%.6g"), label,
               std::to_string(soj.total()),
               std::to_string(soj.percentile(50)),
               std::to_string(soj.percentile(95)),
               std::to_string(soj.percentile(99)),
               std::to_string(soj.max())});
        };
        for (const auto& lane : outcome.telemetry.lanes) {
          emit_latency(lane, std::to_string(lane.lane));
        }
        emit_latency(all, "all");
        latency_csv.flush();
      }
      obs_cli.keep(outcome);
      table.add_row({policy, admission, fmt(k_over_n),
                     fmt(mhz, "%.6g"), fmt(watts, "%.3g"),
                     std::to_string(outcome.failed_lanes) + "/" +
                         std::to_string(outcome.lanes),
                     std::to_string(outcome.overflow_lanes),
                     std::to_string(all.paused_rounds),
                     std::to_string(all.sojourn_rounds.percentile(99)),
                     fmt(fairness), fmt(util)});
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    table.print();
    if (capped_cells > 0) {
      std::printf("\n--budget-w=%g capped %d cell(s); duplicate capped cells "
                  "run once\n",
                  base.budget_w, capped_cells);
    }
    std::printf("\nwall-clock %.1f ms (--threads=%d)\n", ms, base.threads);
    using qec::bench::report_written;
    if (!csv_path.empty() && !report_written(csv.flush(), "sweep", csv_path)) {
      return 1;
    }
    if (!latency_path.empty() &&
        !report_written(latency_csv.flush(), "per-lane sojourn latency",
                        latency_path)) {
      return 1;
    }
    return obs_cli.write(" (last cell)") ? 0 : 1;
  } catch (const std::exception& e) {
    return qec::report_failure("pool_scaling", e);
  }
}
