// perfbench: the repository benchmark. One closed-loop process per
// workload: set up (several times, for setup_s), then run iteration after
// iteration of a fixed input size for --seconds, checking every output.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). See perfbench/README.md.
//
//   perfbench --workload=NAME [--seed=2021] [--seconds=20] [--trace=0|1]
//             [--out=DIR] [--smoke] [--pin=TRIALS]
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "surface_code/packed_bits.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::Iteration;
using perfbench::median;
using perfbench::quantile;

constexpr const char* kOptions =
    "  --workload=NAME       fleet_stress | fleet_operating | pool_qos |\n"
    "                        paper_sweep\n"
    "  --seed=2021           workload seed (inputs are a function of it)\n"
    "  --seconds=20          measured wall time per run\n"
    "  --trace=0             1: traced run, per-layer metrics\n"
    "  --out=.               directory for exports and the span trace\n"
    "  --smoke               tiny inputs (the benchmark's own tests)\n"
    "  --pin=TRIALS          print pinned paper_sweep rates and exit\n";

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* bitops_backend() {
#if defined(QEC_PORTABLE_BITOPS)
  return "swar";
#elif defined(QEC_BITOPS_STD)
  return "std";
#elif defined(QEC_BITOPS_BUILTIN)
  return "builtin";
#else
  return "swar";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + qec::bench::fmt(m.value, "%.12g") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body + "}}";
}

/// Median, quartiles and the highest percentile that still has ten
/// iterations beyond it, for a per-iteration series where `higher` is
/// better.
void print_series(const std::string& name, const std::string& unit,
                  const std::vector<double>& values, bool higher) {
  const std::size_t n = values.size();
  char tail[64] = "n/a (fewer than 11 iterations)";
  if (n >= 11) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (higher) std::reverse(sorted.begin(), sorted.end());  // best first
    const std::size_t k = n - 10;  // ten iterations are worse than entry k-1
    std::snprintf(tail, sizeof tail, "p%.0f=%.6g",
                  100.0 * static_cast<double>(k) / static_cast<double>(n),
                  sorted[k - 1]);
  }
  std::printf("  %-28s %12s %-14s q1=%-12s q3=%-12s n=%-4zu tail %s\n",
              name.c_str(), qec::bench::fmt(median(values), "%.6g").c_str(),
              unit.c_str(), qec::bench::fmt(quantile(values, 0.25), "%.6g").c_str(),
              qec::bench::fmt(quantile(values, 0.75), "%.6g").c_str(), n, tail);
}

/// Runs one iteration, turning an exception into a failed iteration.
Iteration guarded(perfbench::Workload& workload, perfbench::Spans& spans,
                  bool traced) {
  try {
    return workload.iterate(spans, traced);
  } catch (const std::exception& e) {
    Iteration it;
    it.errors.push_back(std::string("threw: ") + e.what());
    return it;
  }
}

std::int64_t count_failed(const std::vector<Iteration>& its) {
  return std::count_if(its.begin(), its.end(),
                       [](const Iteration& it) { return !it.errors.empty(); });
}

void print_errors(const std::vector<Iteration>& its) {
  for (const Iteration& it : its) {
    for (const std::string& e : it.errors) std::printf("check failed: %s\n", e.c_str());
  }
}

std::vector<double> per_iteration(const std::vector<Iteration>& its,
                                  double (*field)(const Iteration&)) {
  std::vector<double> values;
  for (const Iteration& it : its) {
    if (it.errors.empty()) values.push_back(field(it));
  }
  return values;
}

double lane_rounds_per_s(const Iteration& i) { return i.lane_rounds / i.wall_s; }
double replay_lane_rounds_per_s(const Iteration& i) { return i.lane_rounds / i.decode_s; }
double record_lane_rounds_per_s(const Iteration& i) { return i.lane_rounds / i.input_s; }
double trials_per_s(const Iteration& i) { return i.trials / i.wall_s; }
double cpu_us_per_lane_round(const Iteration& i) { return 1e6 * i.cpu_s / i.lane_rounds; }
double cpu_us_per_trial(const Iteration& i) { return 1e6 * i.cpu_s / i.trials; }

int timed_run(const perfbench::Options& options, double seconds,
              Clock::time_point process_start) {
  // Set up several times; the first repetition counts from process start.
  std::vector<double> setup_times;
  std::unique_ptr<perfbench::Workload> workload;
  for (int rep = 0; rep < (options.smoke ? 1 : 3); ++rep) {
    const auto start = rep == 0 ? process_start : Clock::now();
    workload = perfbench::make_workload(options);
    workload->setup();
    setup_times.push_back(perfbench::seconds_since(start));
  }

  perfbench::Spans off(false);
  std::vector<Iteration> its;
  const auto start = Clock::now();
  do {
    its.push_back(guarded(*workload, off, false));
  } while (perfbench::seconds_since(start) < seconds);
  const std::int64_t failed = count_failed(its);
  print_errors(its);

  struct Series {
    const char* name;
    const char* unit;
    double (*field)(const Iteration&);
    bool higher;
  };
  const Series series[] = {
      {"lane_rounds_per_s", "lane-rounds/s", lane_rounds_per_s, true},
      {"replay_lane_rounds_per_s", "lane-rounds/s", replay_lane_rounds_per_s, true},
      {"record_lane_rounds_per_s", "lane-rounds/s", record_lane_rounds_per_s, true},
      {"trials_per_s", "trials/s", trials_per_s, true},
      {"cpu_us_per_lane_round", "us", cpu_us_per_lane_round, false},
      {"cpu_us_per_trial", "us", cpu_us_per_trial, false},
  };
  std::printf("%s: %zu iterations in %.2f s (seed %llu, %d threads)\n",
              options.workload.c_str(), its.size(), perfbench::seconds_since(start),
              static_cast<unsigned long long>(options.seed), options.threads);
  std::vector<Metric> metrics;
  for (const Series& s : series) {
    const auto values = per_iteration(its, s.field);
    print_series(s.name, s.unit, values, s.higher);
    // cpu_us_per_trial is printed only: per workload it is a fixed
    // multiple of cpu_us_per_lane_round.
    if (std::string(s.name) != "cpu_us_per_trial") {
      metrics.push_back({s.name, s.unit, median(values)});
    }
  }
  metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
  metrics.push_back({"setup_s", "s", median(setup_times)});
  std::printf("  %-28s %12.6g MiB\n", "peak_rss_mb", metrics[metrics.size() - 2].value);
  std::printf("  %-28s %12.6g s   (median of %zu set-ups)\n", "setup_s",
              metrics.back().value, setup_times.size());
  std::printf("  %-28s %12.6g ratio (%lld of %zu iterations failed)\n", "error_frac",
              static_cast<double>(failed) / static_cast<double>(its.size()),
              static_cast<long long>(failed), its.size());
  std::printf("%s\n", result_json(failed == 0, static_cast<std::int64_t>(its.size()),
                                  failed, metrics)
                          .c_str());
  return 0;
}

int traced_run(const perfbench::Options& options, double seconds) {
  const auto workload = perfbench::make_workload(options);
  workload->setup();

  // Untraced and traced iterations alternate, so the tracing overhead is
  // measured under the same machine conditions.
  perfbench::Spans spans(true);
  perfbench::Spans off(false);
  std::vector<Iteration> untraced, traced;
  const auto start = Clock::now();
  for (int i = 0; untraced.empty() || traced.empty() ||
                  perfbench::seconds_since(start) < seconds;
       ++i) {
    const bool trace = i % 2 == 1;
    spans.set_iteration(i);
    (trace ? traced : untraced).push_back(guarded(*workload, trace ? spans : off, trace));
  }
  spans.set_iteration(-1);

  perfbench::Layers layers;
  std::vector<std::string> probe_errors;
  try {
    workload->probe(spans, untraced, traced, layers, probe_errors);
  } catch (const std::exception& e) {
    probe_errors.push_back(std::string("probe threw: ") + e.what());
  }
  const std::string span_path = options.out_dir + "/" + options.workload + ".spans.json";
  if (!spans.write_chrome_trace(span_path)) probe_errors.push_back("cannot write " + span_path);
  const double plain = median(per_iteration(untraced, lane_rounds_per_s));
  const double with_spans = median(per_iteration(traced, lane_rounds_per_s));
  layers["bench.tracing_overhead_frac"] = plain > 0 ? 1.0 - with_spans / plain : 0.0;

  const std::int64_t failed = count_failed(untraced) + count_failed(traced) +
                              (probe_errors.empty() ? 0 : 1);
  const auto attempted = static_cast<std::int64_t>(untraced.size() + traced.size() + 1);
  print_errors(untraced);
  print_errors(traced);
  for (const std::string& e : probe_errors) std::printf("check failed: %s\n", e.c_str());

  std::printf("%s traced run: %zu untraced + %zu traced iterations "
              "(seed %llu, %d threads)\n",
              options.workload.c_str(), untraced.size(), traced.size(),
              static_cast<unsigned long long>(options.seed), options.threads);
  std::printf("tracing overhead: lane_rounds_per_s %.6g untraced vs %.6g traced "
              "(%.2f%%; traced iterations also enable the library's stage "
              "profiler); trials_per_s %.6g vs %.6g\n",
              plain, with_spans, 100.0 * layers["bench.tracing_overhead_frac"],
              median(per_iteration(untraced, trials_per_s)),
              median(per_iteration(traced, trials_per_s)));
  std::printf("per-layer metrics (0 = layer not exercised by this workload):\n");
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : perfbench::layer_metric_units()) {
    const auto found = layers.find(name);
    const double value = found == layers.end() ? 0.0 : found->second;
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({name, unit, value});
  }
  std::printf("spans (count, total ms, self ms):\n");
  for (const auto& [name, t] : spans.totals()) {
    std::printf("  %-36s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
  }
  std::printf("span trace: %s\n", span_path.c_str());
  std::printf("%s\n", result_json(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "perfbench",
                       "the repository benchmark: closed-loop workloads with "
                       "end-to-end and per-layer metrics",
                       kOptions)) {
    return 0;
  }
  try {
    perfbench::Options options;
    options.workload = args.get_or("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 2021));
    options.smoke = args.get_flag("smoke");
    options.out_dir = args.get_or("out", ".");
    const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    options.threads = std::min(4, nproc);
    const double seconds = args.get_double_or("seconds", 20.0);
    const std::int64_t trace = args.get_int_or("trace", 0);
    if (seconds <= 0 || (trace != 0 && trace != 1)) {
      throw std::invalid_argument("need --seconds > 0 and --trace 0|1");
    }
    std::filesystem::create_directories(options.out_dir);
    if (const auto pin = args.get_int("pin")) {
      options.workload = "paper_sweep";
      perfbench::pin_sweep(options, static_cast<int>(*pin));
      return 0;
    }
    perfbench::make_workload(options);  // reject an unknown name up front

    // Keep git from searching above the working directory for a repo.
    const std::string cwd = std::filesystem::current_path().string();
    setenv("GIT_CEILING_DIRECTORIES",
           std::filesystem::path(cwd).parent_path().string().c_str(), 1);
    std::printf("provenance: {\"git_rev\": \"%s\", \"nproc\": %d, \"cpu_model\": \"%s\", "
                "\"threads\": %d, \"build_type\": \"%s\", \"bitops\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s}\n",
                qec::bench::git_revision().c_str(), nproc,
                qec::bench::json_escape(cpu_model()).c_str(), options.threads,
                PERFBENCH_BUILD_TYPE, bitops_backend(), options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.smoke ? "true" : "false");
    return trace ? traced_run(options, seconds)
                 : timed_run(options, seconds, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
