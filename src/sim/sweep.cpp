#include "sim/sweep.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "decoder/registry.hpp"

namespace qec {

SweepVariant decoder_variant(std::string label, std::string decoder_spec) {
  return {.label = std::move(label), .decoder = std::move(decoder_spec)};
}

SweepVariant online_variant(std::string label, OnlineConfig online) {
  return {.label = std::move(label), .decoder = {}, .online = online};
}

ExperimentConfig SweepGrid::cell_config(int distance, double p) const {
  ExperimentConfig config = code_capacity
                                ? code_capacity_config(distance, p, trials, seed)
                                : phenomenological_config(distance, p, trials,
                                                          seed);
  config.threads = threads;
  config.shards = shards;
  return config;
}

const SweepCell* SweepResult::find(std::string_view variant, int distance,
                                   double p) const {
  for (const SweepCell& cell : cells) {
    if (cell.variant == variant && cell.distance == distance &&
        cell.p == p) {
      return &cell;
    }
  }
  return nullptr;
}

std::vector<DistanceCurve> SweepResult::curves(
    std::string_view variant) const {
  std::vector<DistanceCurve> out;
  for (const SweepCell& cell : cells) {
    if (cell.variant != variant) continue;
    if (out.empty() || out.back().distance != cell.distance) {
      out.push_back({cell.distance, {}});
    }
    out.back().points.push_back({cell.p, cell.result.logical_error_rate});
  }
  return out;
}

std::optional<double> SweepResult::threshold(std::string_view variant) const {
  return estimate_threshold(curves(variant));
}

namespace {

std::vector<std::string> csv_header() {
  return {"variant", "decoder", "distance", "rounds", "p", "trials",
          "failures", "operational_failures", "pl", "ci_lower", "ci_upper"};
}

void csv_append(CsvWriter& csv, const SweepCell& cell) {
  csv.add_row({cell.variant, cell.decoder, std::to_string(cell.distance),
               std::to_string(cell.config.rounds), TextTable::fmt(cell.p, 6),
               std::to_string(cell.result.trials),
               std::to_string(cell.result.failures),
               std::to_string(cell.result.operational_failures),
               TextTable::sci(cell.result.logical_error_rate, 6),
               TextTable::sci(cell.result.ci.lower, 6),
               TextTable::sci(cell.result.ci.upper, 6)});
}

}  // namespace

bool SweepResult::write_csv(const std::string& path) const {
  CsvWriter csv(path, csv_header());
  if (!csv.ok()) return false;
  for (const SweepCell& cell : cells) csv_append(csv, cell);
  return csv.flush();
}

SweepResult run_sweep(const SweepGrid& grid, const std::string& csv_path,
                      const SweepProgress& progress) {
  // Validate every spec, trial count and the CSV destination before any
  // Monte Carlo time. cells[v * points + point]; paired[point]: its variants.
  const std::size_t points = grid.distances.size() * grid.ps.size();
  std::vector<std::vector<PairedVariant>> paired(points);
  SweepResult result;
  for (const SweepVariant& variant : grid.variants) {
    const DecoderMaker make =
        variant.online ? nullptr : decoder_maker(variant.decoder);
    for (int distance : grid.distances) {
      for (double p : grid.ps) {
        SweepCell cell{.variant = variant.label,
                       .decoder = variant.online ? "online" : variant.decoder,
                       .distance = distance,
                       .p = p,
                       .config = grid.cell_config(distance, p)};
        if (variant.trials_for) {
          cell.config.trials = variant.trials_for(cell.config);
        }
        if (cell.config.trials < 1) {
          throw std::invalid_argument("sweep: variant '" + variant.label +
                                      "' needs at least 1 trial");
        }
        paired[result.cells.size() % points].push_back(
            {.label = variant.label, .trials = cell.config.trials,
             .online = variant.online, .make = make});
        result.cells.push_back(std::move(cell));
      }
    }
  }
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(csv_path, csv_header());
    if (!csv->ok()) {
      throw std::runtime_error("sweep: cannot write CSV to " + csv_path);
    }
  }

  // One paired experiment per point. A row streams once it and every
  // earlier row are done: the first variant's rows point by point, the rest
  // after the last point.
  std::size_t streamed = 0;
  for (std::size_t point = 0; point < points && !grid.variants.empty();
       ++point) {
    std::vector<ExperimentResult> results =
        run_paired_experiment(result.cells[point].config, paired[point]);
    for (std::size_t v = 0; v < results.size(); ++v) {
      result.cells[v * points + point].result = std::move(results[v]);
    }
    const std::size_t done =
        point + 1 == points ? result.cells.size() : point + 1;
    for (; streamed < done; ++streamed) {
      if (csv) {
        csv_append(*csv, result.cells[streamed]);
        csv->flush();
      }
      if (progress) progress(result.cells[streamed]);
    }
  }
  if (csv && !csv->flush()) {
    throw std::runtime_error("sweep: write to " + csv_path + " failed");
  }
  return result;
}

std::vector<double> log_spaced(double lo, double hi, int points) {
  std::vector<double> out;
  if (points <= 1) {
    out.push_back(lo);
    return out;
  }
  for (int i = 0; i < points; ++i) {
    out.push_back(lo * std::pow(hi / lo,
                                static_cast<double>(i) / (points - 1)));
  }
  return out;
}

}  // namespace qec
