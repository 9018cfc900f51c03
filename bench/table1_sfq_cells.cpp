// Table I: the SFQ logic elements used by the QECOOL Unit, with JJ counts,
// bias currents, areas and latencies from the AIST ADP cell library.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sfq/cell_library.hpp"

int main(int argc, char** argv) try {
  const qec::CliArgs args(argc, argv);
  if (qec::handle_help(args, "table1_sfq_cells",
                       "Table I: summary of the SFQ logic cells (JJs, bias, "
                       "area, latency) from the AIST ADP cell library",
                       "")) {
    return 0;
  }
  qec::bench::print_header("Table I: summary of SFQ logic elements",
                           "Table I (AIST 10-kA/cm^2 ADP cell library)");
  qec::TextTable table(
      {"cell", "JJs", "Bias current (mA)", "Area (um^2)", "Latency (ps)"});
  for (const auto& spec : qec::cell_table()) {
    table.add_row({std::string(spec.name), std::to_string(spec.jjs),
                   qec::TextTable::fmt(spec.bias_ma, 3),
                   qec::TextTable::fmt(spec.area_um2, 0),
                   qec::TextTable::fmt(spec.latency_ps, 1)});
  }
  table.print();
  return 0;
} catch (const std::exception& e) {
  return qec::report_failure("table1_sfq_cells", e);
}
