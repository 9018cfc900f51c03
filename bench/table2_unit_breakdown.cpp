// Table II + Fig 6: per-module breakdown of one QECOOL Unit (cell counts,
// JJs, area, bias current, latency) and the whole-Unit budget: 3177 JJs,
// 1.274 mm^2, 336 mA, 215 ps critical path (~5 GHz max clock).
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sfq/power.hpp"
#include "sfq/unit_netlist.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "table2_unit_breakdown",
                       "Table II: logic elements, JJs, area and bias current "
                       "per Unit module",
                       "")) {
    return 0;
  }
  qec::bench::print_header(
      "Table II: logic elements / JJs / area / bias per Unit module",
      "Table II and Fig 6");

  qec::TextTable table({"module", "splitter", "merger", "1:2 switch", "DRO",
                        "NDRO", "RD", "D2", "wire JJs", "JJs", "area (um^2)",
                        "bias (mA)", "latency (ps)"});
  for (const auto& m : qec::unit_modules()) {
    std::vector<std::string> row = {std::string(m.name)};
    for (int c = 0; c < qec::kSfqCellCount; ++c) {
      row.push_back(std::to_string(m.cells[static_cast<std::size_t>(c)]));
    }
    row.push_back(std::to_string(m.wire_jjs));
    row.push_back(std::to_string(m.published_jjs));
    row.push_back(qec::TextTable::fmt(m.published_area_um2, 0));
    row.push_back(qec::TextTable::fmt(m.published_bias_ma, 1));
    row.push_back(m.published_latency_ps > 0
                      ? qec::TextTable::fmt(m.published_latency_ps, 1)
                      : "-");
    table.add_row(row);
  }
  table.print();

  const auto budget = qec::unit_budget();
  int derived = 0;
  for (const auto& m : qec::unit_modules()) derived += m.derived_jjs();
  std::printf("\nUnit totals: %d JJs (derived bottom-up: %d), %.3f mm^2, "
              "%.0f mA, %.0f ps critical path\n",
              budget.jjs, derived, budget.area_um2 * 1e-6, budget.bias_ma,
              budget.critical_path_ps);
  std::printf("max clock: %.2f GHz (paper: about 5 GHz)\n",
              qec::unit_max_frequency_hz() / 1e9);
  std::printf("RSFQ power/Unit: %.0f uW; ERSFQ power/Unit at 2 GHz: %.2f uW\n",
              qec::qecool_unit_rsfq_power_w() * 1e6,
              qec::qecool_unit_ersfq_power_w(2e9) * 1e6);
  std::printf("Fig 6 layout: 1770 um x 720 um = %.3f mm^2\n",
              1770.0 * 720.0 * 1e-6);
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("table2_unit_breakdown", e);
}
