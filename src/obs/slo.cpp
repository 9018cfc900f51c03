#include "obs/slo.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/csv.hpp"
#include "obs/chrome_trace.hpp"

namespace qec::obs {

namespace {

// Splits on `sep`, keeping empty pieces (an empty item is a spec error
// worth naming, not silently skipping).
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_int64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

bool objective_met(std::int64_t value, SloOp op, std::int64_t threshold) {
  switch (op) {
    case SloOp::kLt: return value < threshold;
    case SloOp::kLe: return value <= threshold;
    case SloOp::kGt: return value > threshold;
    case SloOp::kGe: return value >= threshold;
  }
  return false;
}

}  // namespace

const char* slo_op_name(SloOp op) {
  switch (op) {
    case SloOp::kLt: return "<";
    case SloOp::kLe: return "<=";
    case SloOp::kGt: return ">";
    case SloOp::kGe: return ">=";
  }
  return "?";
}

const char* slo_state_name(SloState state) {
  switch (state) {
    case SloState::kOk: return "ok";
    case SloState::kWarning: return "warning";
    case SloState::kPage: return "page";
  }
  return "unknown";
}

std::string SloObjective::spec() const {
  return metric + slo_op_name(op) + std::to_string(threshold);
}

SloConfig parse_slo_spec(const std::string& spec) {
  SloConfig config;
  std::vector<std::string> problems;  // every offending item, not just the first

  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) {
      problems.push_back("'' (empty item)");
      continue;
    }
    // Objectives use a comparison operator; options use a bare '='.
    // Check the two-char operators first so "<=" is not read as "<" + "=".
    struct OpToken {
      const char* text;
      SloOp op;
    };
    static constexpr OpToken kOps[] = {{"<=", SloOp::kLe},
                                       {">=", SloOp::kGe},
                                       {"<", SloOp::kLt},
                                       {">", SloOp::kGt}};
    SloOp op{};
    std::size_t op_pos = std::string::npos;
    std::size_t op_len = 0;
    for (const OpToken& token : kOps) {
      const std::size_t pos = item.find(token.text);
      if (pos != std::string::npos) {
        op = token.op;
        op_pos = pos;
        op_len = std::strlen(token.text);
        break;
      }
    }

    if (op_pos != std::string::npos) {
      SloObjective objective;
      objective.metric = item.substr(0, op_pos);
      objective.op = op;
      const std::string rhs = item.substr(op_pos + op_len);
      if (!valid_metric_name(objective.metric)) {
        problems.push_back("'" + item + "' (bad metric name '" +
                           objective.metric + "')");
        continue;
      }
      if (!parse_int64(rhs, &objective.threshold)) {
        problems.push_back("'" + item + "' (threshold '" + rhs +
                           "' is not an integer)");
        continue;
      }
      config.objectives.push_back(std::move(objective));
      continue;
    }

    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      problems.push_back("'" + item +
                         "' (expected metric<op>threshold or key=value)");
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    std::int64_t parsed = 0;
    if (key != "window" && key != "fast" && key != "slow") {
      problems.push_back("'" + item + "' (unknown option '" + key + "')");
      continue;
    }
    if (!parse_int64(value, &parsed) || parsed < 1) {
      problems.push_back("'" + item + "' (option '" + key +
                         "' needs a positive integer)");
      continue;
    }
    if (key == "window") {
      config.window = static_cast<int>(parsed);
    } else if (key == "fast") {
      config.fast = static_cast<int>(parsed);
    } else {
      config.slow = static_cast<int>(parsed);
    }
  }

  if (config.slow < config.fast) {
    problems.push_back("'slow=" + std::to_string(config.slow) +
                       "' (slow burn window must be >= fast=" +
                       std::to_string(config.fast) + ")");
  }
  if (config.objectives.empty() && problems.empty()) {
    problems.push_back("'" + spec + "' (no objectives)");
  }
  if (!problems.empty()) {
    throw std::invalid_argument("bad slo spec: " + join(problems, "; "));
  }
  return config;
}

SloEngine::SloEngine(SloConfig config) : config_(std::move(config)) {
  runtime_.resize(config_.objectives.size());
  summaries_.resize(config_.objectives.size());
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    summaries_[i].spec = config_.objectives[i].spec();
    runtime_[i].ring.assign(static_cast<std::size_t>(config_.slow), 0);
  }
}

void SloEngine::attach(MetricsRegistry& metrics, Track* control) {
  metrics_ = &metrics;
  control_ = control;

  // Register our own counters BEFORE resolving objective columns: new
  // counters land ahead of every gauge/histogram column in value_schema(),
  // so resolving first would leave each objective reading a column three
  // slots to the left of its metric.
  counter_ok_ = metrics.add_counter("slo_ok");
  counter_warning_ = metrics.add_counter("slo_warning");
  counter_page_ = metrics.add_counter("slo_page");

  const std::vector<std::string> schema = metrics.value_schema();
  std::vector<std::string> unknown;
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const auto it = std::find(schema.begin(), schema.end(),
                              config_.objectives[i].metric);
    if (it == schema.end()) {
      unknown.push_back("'" + config_.objectives[i].metric + "'");
    } else {
      runtime_[i].column = static_cast<int>(it - schema.begin());
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("bad slo spec: unknown metric(s) " +
                                join(unknown, ", ") +
                                " — known metrics: " + join(schema, ", "));
  }

  metrics.set_window_observer(
      [this](const WindowSnapshot& snapshot) { on_window(snapshot); });
}

void SloEngine::on_window(const WindowSnapshot& snapshot) {
  const auto slow = static_cast<std::size_t>(config_.slow);
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& objective = config_.objectives[i];
    ObjectiveRuntime& rt = runtime_[i];
    const std::int64_t value =
        (*snapshot.values)[static_cast<std::size_t>(rt.column)];
    const bool violated = !objective_met(value, objective.op, objective.threshold);

    rt.ring[rt.head] = violated ? 1 : 0;
    rt.head = (rt.head + 1) % slow;
    rt.filled = std::min(rt.filled + 1, slow);

    int fast_bad = 0;
    int slow_bad = 0;
    for (std::size_t j = 1; j <= rt.filled; ++j) {
      const std::size_t idx = (rt.head + slow - j) % slow;
      if (rt.ring[idx]) {
        ++slow_bad;
        if (j <= static_cast<std::size_t>(config_.fast)) ++fast_bad;
      }
    }

    // Dual-window burn rate with *fixed* denominators (fast/slow, not the
    // windows seen so far): a short history cannot page, and the state is
    // a pure function of the violation bit sequence.
    SloState state = SloState::kOk;
    if (fast_bad == config_.fast && 2 * slow_bad >= config_.slow) {
      state = SloState::kPage;
    } else if (2 * fast_bad >= config_.fast && 4 * slow_bad >= config_.slow) {
      state = SloState::kWarning;
    }

    switch (state) {
      case SloState::kOk: metrics_->count(counter_ok_); break;
      case SloState::kWarning: metrics_->count(counter_warning_); break;
      case SloState::kPage: metrics_->count(counter_page_); break;
    }
    if (control_ && rt.last_state != static_cast<int>(state)) {
      control_->emit_at(snapshot.last, EventKind::kSloState,
                        static_cast<std::uint64_t>(i),
                        static_cast<std::uint16_t>(state));
    }
    rt.last_state = static_cast<int>(state);

    SloVerdict verdict;
    verdict.window = snapshot.index;
    verdict.round_last = snapshot.last;
    verdict.objective = static_cast<int>(i);
    verdict.value = value;
    verdict.violated = violated;
    verdict.fast_bad = fast_bad;
    verdict.slow_bad = slow_bad;
    verdict.state = state;
    verdicts_.push_back(verdict);

    SloObjectiveSummary& summary = summaries_[i];
    ++summary.windows;
    if (violated) ++summary.violations;
    if (state == SloState::kWarning) ++summary.warnings;
    if (state == SloState::kPage) {
      ++summary.pages;
      ever_paged_ = true;
    }
    summary.state = state;
  }
}

SloState SloEngine::worst_state() const {
  SloState worst = SloState::kOk;
  for (const auto& summary : summaries_) {
    if (static_cast<int>(summary.state) > static_cast<int>(worst)) {
      worst = summary.state;
    }
  }
  return worst;
}

bool SloEngine::compliant() const { return !ever_paged_; }

bool SloEngine::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"window", "round_last", "objective", "metric", "op",
                       "threshold", "value", "violated", "fast_bad", "fast",
                       "slow_bad", "slow", "state"});
  if (!csv.ok()) return false;
  for (const auto& verdict : verdicts_) {
    const SloObjective& objective =
        config_.objectives[static_cast<std::size_t>(verdict.objective)];
    csv.add_row({std::to_string(verdict.window),
                 std::to_string(verdict.round_last),
                 std::to_string(verdict.objective), objective.metric,
                 slo_op_name(objective.op), std::to_string(objective.threshold),
                 std::to_string(verdict.value), verdict.violated ? "1" : "0",
                 std::to_string(verdict.fast_bad), std::to_string(config_.fast),
                 std::to_string(verdict.slow_bad), std::to_string(config_.slow),
                 slo_state_name(verdict.state)});
  }
  return csv.flush();
}

std::string SloEngine::summary_json() const {
  std::string out = "{";
  std::vector<std::string> specs;
  for (const auto& objective : config_.objectives) {
    specs.push_back(objective.spec());
  }
  out += "\"spec\": \"" + json_escape(join(specs, ",")) + "\"";
  out += ", \"metrics_window\": " +
         std::to_string(metrics_ ? metrics_->window() : config_.window);
  out += ", \"fast\": " + std::to_string(config_.fast);
  out += ", \"slow\": " + std::to_string(config_.slow);
  out += ", \"objectives\": [";
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    const SloObjectiveSummary& summary = summaries_[i];
    if (i > 0) out += ", ";
    out += "{\"spec\": \"" + json_escape(summary.spec) + "\"";
    out += ", \"windows\": " + std::to_string(summary.windows);
    out += ", \"violations\": " + std::to_string(summary.violations);
    out += ", \"warnings\": " + std::to_string(summary.warnings);
    out += ", \"pages\": " + std::to_string(summary.pages);
    out += ", \"final_state\": \"";
    out += slo_state_name(summary.state);
    out += "\"}";
  }
  out += "], \"worst_state\": \"";
  out += slo_state_name(worst_state());
  out += "\", \"compliant\": ";
  out += compliant() ? "true" : "false";
  out += "}";
  return out;
}

bool write_prom_snapshot(const MetricsRegistry& metrics, const SloEngine* slo,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "# Streaming decode service snapshot (Prometheus text "
               "exposition).\n# Cumulative over all closed metrics windows; "
               "integer-valued and\n# thread-count invariant.\n");
  for (int i = 0; i < metrics.num_counters(); ++i) {
    const std::string& name = metrics.counter_name(i);
    std::fprintf(f, "# TYPE qec_stream_%s counter\nqec_stream_%s %llu\n",
                 name.c_str(), name.c_str(),
                 static_cast<unsigned long long>(metrics.counter_total(i)));
  }
  for (int i = 0; i < metrics.num_gauges(); ++i) {
    const std::string& name = metrics.gauge_name(i);
    std::fprintf(f, "# TYPE qec_stream_%s gauge\nqec_stream_%s %lld\n",
                 name.c_str(), name.c_str(),
                 static_cast<long long>(metrics.gauge_value(i)));
  }
  for (int i = 0; i < metrics.num_histograms(); ++i) {
    const std::string& name = metrics.histogram_name(i);
    const LogHistogram& hist = metrics.histogram_total(i);
    std::fprintf(f, "# TYPE qec_stream_%s summary\n", name.c_str());
    std::fprintf(f, "qec_stream_%s{quantile=\"0.5\"} %llu\n", name.c_str(),
                 static_cast<unsigned long long>(hist.quantile(50)));
    std::fprintf(f, "qec_stream_%s{quantile=\"0.95\"} %llu\n", name.c_str(),
                 static_cast<unsigned long long>(hist.quantile(95)));
    std::fprintf(f, "qec_stream_%s{quantile=\"0.99\"} %llu\n", name.c_str(),
                 static_cast<unsigned long long>(hist.quantile(99)));
    std::fprintf(f, "qec_stream_%s_sum %llu\n", name.c_str(),
                 static_cast<unsigned long long>(hist.sum()));
    std::fprintf(f, "qec_stream_%s_count %llu\n", name.c_str(),
                 static_cast<unsigned long long>(hist.count()));
  }
  std::fprintf(f,
               "# TYPE qec_stream_metrics_windows gauge\n"
               "qec_stream_metrics_windows %d\n",
               metrics.windows());
  if (slo) {
    std::fprintf(f, "# TYPE qec_slo_state gauge\n");
    for (const auto& summary : slo->summaries()) {
      std::fprintf(f, "qec_slo_state{objective=\"%s\"} %d\n",
                   summary.spec.c_str(), static_cast<int>(summary.state));
    }
  }
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace qec::obs
