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
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "obs/slo.hpp"
#include "qecool/online_runner.hpp"
#include "stream/admission.hpp"
#include "stream/scheduler.hpp"
#include "stream/service.hpp"

namespace {

using qec::bench::fmt;
using qec::bench::split_doubles;
using qec::bench::split_list;

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
    "  --dispatch=1          rounds per scheduling dispatch (static policies)\n"
    "  --engine=qecool       lane engine spec\n"
    "  --seed=2021           trace RNG seed\n"
    "  --drain=1000          max drain rounds after the trace ends\n"
    "  --threads=1           worker threads (0 = all cores; never changes "
    "results)\n"
    "  --csv=FILE            write the sweep CSV to FILE\n"
    "  --latency-csv=FILE    per-lane sojourn latency rows for every cell\n"
    "  --json=FILE           write a machine-readable run record to FILE\n"
    "                        (config, git revision, per-cell wall-clock and\n"
    "                        lane-rounds/s — same shape as lane_scaling's)\n"
    "  (the obs flags below apply to every cell and write the LAST cell;\n"
    "  per-cell event counts and SLO compliance land in the --json record)\n";

}  // namespace

int main(int argc, char** argv) {
  const qec::CliArgs args(argc, argv);
  const std::string options = kOptions + std::string(qec::bench::kObsOptions);
  if (qec::handle_help(args, "pool_scaling", kSummary, options.c_str())) return 0;
  qec::StreamConfig base;
  base.lanes = static_cast<int>(args.get_int_or("lanes", 32));
  base.distance = static_cast<int>(args.get_int_or("d", 5));
  base.p = args.get_double_or("p", 0.01);
  base.rounds = static_cast<int>(args.get_int_or("rounds", 128));
  base.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 2021));
  base.engine = args.get_or("engine", "qecool");
  base.max_drain_rounds = static_cast<int>(args.get_int_or("drain", 1000));
  base.rounds_per_dispatch = static_cast<int>(args.get_int_or("dispatch", 1));
  base.budget_w = args.get_double_or("budget-w", 0.0);
  base.threads = qec::threads_override(args, 1);
  qec::bench::ObsCli obs_cli(args, base.obs);

  qec::bench::print_header(
      "Pool scaling: K shared decoder engines serving N lanes",
      "failed-lane fraction over K/N x clock, per scheduling policy");

  try {
    const auto clocks_mhz = split_doubles(args.get_or("mhz", "10,40,160"));
    const auto policies =
        split_specs(args.get_or("policies", "round_robin,least_loaded"));
    const auto admissions = split_specs(args.get_or("admission", "overflow"));

    // Pool sizes: a single --engines=K, or the K/N fraction grid.
    std::vector<int> pool_sizes;
    if (const auto fixed = args.get_int("engines")) {
      pool_sizes.push_back(static_cast<int>(*fixed));
    } else {
      for (const double f : split_doubles(
               args.get_or("fractions", "0.125,0.25,0.375,0.5,0.75,1"))) {
        const int k = std::clamp(
            static_cast<int>(std::lround(f * base.lanes)), 1, base.lanes);
        if (pool_sizes.empty() || pool_sizes.back() != k) pool_sizes.push_back(k);
      }
    }

    // Validate every policy and admission spec — and the power budget's
    // affordability at every clock — before the first (possibly long)
    // cell, so nothing throws mid-sweep leaving a partial CSV.
    for (const auto& policy : policies) qec::make_scheduler_policy(policy);
    for (const auto& admission : admissions) {
      qec::parse_admission_spec(admission);
    }
    if (!base.obs.slo.empty()) qec::obs::parse_slo_spec(base.obs.slo);
    if (base.budget_w > 0) {
      for (const double mhz : clocks_mhz) {
        if (mhz <= 0) {
          throw std::invalid_argument(
              "--budget-w needs a positive clock; got --mhz=" + fmt(mhz));
        }
        if (qec::PoolPowerModel::max_engines(base.budget_w, base.distance,
                                             mhz * 1e6) < 1) {
          throw std::invalid_argument(
              "--budget-w=" + fmt(base.budget_w, "%.6g") +
              " cannot supply even one engine at d=" +
              std::to_string(base.distance) + ", " + fmt(mhz, "%.6g") +
              " MHz");
        }
      }
    }

    const qec::SyndromeTrace trace = qec::record_trace(base);
    std::printf("trace: %d lanes, d=%d, %d rounds, p=%g, seed %llu\n\n",
                trace.lanes(), base.distance, trace.rounds(), base.p,
                static_cast<unsigned long long>(base.seed));

    const std::string csv_path = args.get_or("csv", "");
    qec::CsvWriter csv(csv_path.empty() ? "/dev/null" : csv_path,
                       {"policy", "admission", "lanes", "engines", "k_over_n",
                        "mhz", "budget", "watts", "budget_w",
                        "overflow_lanes", "undrained_lanes",
                        "logical_failures", "failed_lanes", "failed_frac",
                        "surviving_lanes", "lanes_per_watt", "utilization",
                        "fairness", "starved_rounds", "paused_rounds",
                        "soj_p50", "soj_p95", "soj_p99", "soj_max"});

    const std::string json_path = args.get_or("json", "");
    std::vector<std::string> json_cells;

    const std::string latency_path = args.get_or("latency-csv", "");
    qec::CsvWriter latency_csv(
        latency_path.empty() ? "/dev/null" : latency_path,
        {"policy", "admission", "lanes", "engines", "mhz", "lane", "samples",
         "soj_p50", "soj_p95", "soj_p99", "soj_max"});

    qec::TextTable table({"policy", "admission", "K/N", "mhz", "watts",
                          "failed", "overflow", "paused", "soj_p99",
                          "fairness", "util"});
    const auto start = std::chrono::steady_clock::now();
    // With --budget-w, several requested K collapse onto the same
    // power-capped pool; run each distinct (admission, policy, clock, K)
    // cell once instead of re-recording identical rows.
    std::set<std::string> seen;
    int capped_cells = 0;
    for (const auto& admission : admissions) {
      for (const auto& policy : policies) {
        for (const int engines : pool_sizes) {
          for (const double mhz : clocks_mhz) {
            int k = engines;
            if (base.budget_w > 0) {
              const int fit = qec::PoolPowerModel::max_engines(
                  base.budget_w, base.distance, mhz * 1e6);
              if (fit < k) {
                k = fit;
                ++capped_cells;
              }
            }
            if (!seen.insert(admission + "|" + policy + "|" + fmt(mhz, "%.9g") +
                             "|" + std::to_string(k))
                     .second) {
              continue;
            }
            qec::StreamConfig config = base;
            config.policy = policy;
            config.admission = admission;
            config.engines = engines;
            config.cycles_per_round = qec::cycles_per_microsecond(mhz * 1e6);
            const auto cell_start = std::chrono::steady_clock::now();
            const qec::StreamOutcome outcome = qec::run_stream(trace, config);
            const double replay_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - cell_start)
                    .count();

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
            const std::uint64_t soj_max =
                all.sojourn_rounds.empty()
                    ? 0
                    : *std::max_element(all.sojourn_rounds.begin(),
                                        all.sojourn_rounds.end());

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
                   std::to_string(all.sojourn_percentile(50)),
                   std::to_string(all.sojourn_percentile(95)),
                   std::to_string(all.sojourn_percentile(99)),
                   std::to_string(soj_max)});
              csv.flush();
            }
            if (!latency_path.empty() && latency_csv.ok()) {
              const auto emit_latency = [&](const qec::LaneTelemetry& t,
                                            const std::string& label) {
                const std::uint64_t lane_max =
                    t.sojourn_rounds.empty()
                        ? 0
                        : *std::max_element(t.sojourn_rounds.begin(),
                                            t.sojourn_rounds.end());
                latency_csv.add_row(
                    {policy, admission, std::to_string(outcome.lanes),
                     std::to_string(ran_engines), fmt(mhz, "%.6g"), label,
                     std::to_string(t.sojourn_rounds.size()),
                     std::to_string(t.sojourn_percentile(50)),
                     std::to_string(t.sojourn_percentile(95)),
                     std::to_string(t.sojourn_percentile(99)),
                     std::to_string(lane_max)});
              };
              for (const auto& lane : outcome.telemetry.lanes) {
                emit_latency(lane, std::to_string(lane.lane));
              }
              emit_latency(all, "all");
              latency_csv.flush();
            }
            if (!json_path.empty()) {
              const std::int64_t lane_rounds =
                  static_cast<std::int64_t>(all.rounds_streamed) +
                  all.drain_rounds;
              qec::bench::JsonObject cell;
              cell.add("policy", policy)
                  .add("admission", admission)
                  .add("lanes", outcome.lanes)
                  .add("engines", ran_engines)
                  .add("mhz", mhz)
                  .add("replay_ms", replay_ms)
                  .add("streamed_lane_rounds", lane_rounds)
                  .add("us_per_lane_round",
                       lane_rounds ? replay_ms * 1e3 /
                                         static_cast<double>(lane_rounds)
                                   : 0.0)
                  .add("lane_rounds_per_sec",
                       replay_ms > 0 ? static_cast<double>(lane_rounds) /
                                           (replay_ms * 1e-3)
                                     : 0.0)
                  .add("failed_lanes", outcome.failed_lanes)
                  .add("failed_frac", failed_frac)
                  .add("watts", watts);
              if (outcome.tracer) {
                const auto emitted = outcome.tracer->emitted();
                cell.add_raw(
                    "obs",
                    qec::bench::JsonObject()
                        .add("events", static_cast<std::int64_t>(emitted))
                        .add("dropped", static_cast<std::int64_t>(
                                            outcome.tracer->dropped()))
                        .add("events_per_lane_round",
                             lane_rounds ? static_cast<double>(emitted) /
                                               static_cast<double>(lane_rounds)
                                         : 0.0)
                        .str());
              }
              if (outcome.slo) {
                cell.add_raw("slo", outcome.slo->summary_json());
              }
              json_cells.push_back(cell.str());
            }
            obs_cli.keep(outcome);
            table.add_row({policy, admission, fmt(k_over_n),
                           fmt(mhz, "%.6g"), fmt(watts, "%.3g"),
                           std::to_string(outcome.failed_lanes) + "/" +
                               std::to_string(outcome.lanes),
                           std::to_string(outcome.overflow_lanes),
                           std::to_string(all.paused_rounds),
                           std::to_string(all.sojourn_percentile(99)),
                           fmt(fairness), fmt(util)});
          }
        }
      }
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
    std::printf("\nwall-clock %.1f ms (--threads=%d, --dispatch=%d)\n", ms,
                base.threads, base.rounds_per_dispatch);
    if (!csv_path.empty()) {
      std::printf("sweep written to %s\n", csv_path.c_str());
    }
    if (!latency_path.empty()) {
      std::printf("per-lane sojourn latency written to %s\n",
                  latency_path.c_str());
    }
    if (!obs_cli.write(" (last cell)")) return 1;
    if (!json_path.empty()) {
      std::vector<std::string> policy_items, admission_items, pool_items;
      for (const auto& p : policies) {
        policy_items.push_back("\"" + qec::bench::json_escape(p) + "\"");
      }
      for (const auto& a : admissions) {
        admission_items.push_back("\"" + qec::bench::json_escape(a) + "\"");
      }
      for (const int k : pool_sizes) pool_items.push_back(std::to_string(k));
      const std::string config_json =
          qec::bench::JsonObject()
              .add("lanes", base.lanes)
              .add("d", base.distance)
              .add("p", base.p)
              .add("rounds", base.rounds)
              .add("seed", static_cast<std::int64_t>(base.seed))
              .add("engine", base.engine)
              .add("dispatch", base.rounds_per_dispatch)
              .add("threads", base.threads)
              .add("budget_w", base.budget_w)
              .add("slo", base.obs.slo)
              .add("profile", base.obs.profile ? 1 : 0)
              .add_raw("policies", qec::bench::json_array(policy_items))
              .add_raw("admissions", qec::bench::json_array(admission_items))
              .add_raw("engines", qec::bench::json_array(pool_items))
              .add_raw("mhz", qec::bench::json_array(clocks_mhz))
              .str();
      qec::bench::write_json_file(
          json_path, qec::bench::JsonObject()
                         .add("bench", "pool_scaling")
                         .add("git_rev", qec::bench::git_revision())
                         .add_raw("config", config_json)
                         .add_raw("cells", qec::bench::json_array(json_cells))
                         .str());
      std::printf("run record written to %s\n", json_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    return qec::report_failure("pool_scaling", e);
  }
}
