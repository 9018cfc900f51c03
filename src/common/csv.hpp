// Minimal CSV writer so bench binaries can emit plotting-ready data
// alongside their human-readable tables (use --csv=path in the figure
// benches).
#pragma once

#include <charconv>
#include <concepts>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace qec {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. ok() reports
  /// whether the stream is usable; writes to a failed stream are no-ops.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  bool ok() const { return static_cast<bool>(out_); }

  /// Appends one field to the current row, quoted when it holds a comma,
  /// a double quote or a newline. end_row() finishes the row.
  CsvWriter& operator<<(std::string_view field);

  /// Appends one integer field, in the decimal form std::to_string gives.
  template <std::integral Int>
  CsvWriter& operator<<(Int value) {
    char digits[24];
    const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    return append({digits, static_cast<std::size_t>(end - digits)});
  }

  /// Pads the current row to the header's column count and writes it.
  void end_row();

  /// One whole row: every field streamed, then end_row().
  void add_row(const std::vector<std::string>& row);

  /// Convenience for numeric rows.
  void add_row(const std::vector<double>& row);

  /// Pushes buffered rows to disk; long-running writers call this after
  /// each row so an interrupted run keeps everything finished so far.
  /// Returns false once any open, write or flush has failed (a full disk
  /// surfaces here), so a writer's last call is `return csv.flush();`.
  bool flush() {
    out_.flush();
    return ok();
  }

 private:
  /// Appends `text` as the next field, unescaped.
  CsvWriter& append(std::string_view text);

  std::ofstream out_;
  std::size_t columns_ = 0;
  std::size_t fields_ = 0;  ///< fields in the current row so far
  std::string line_;        ///< the current row, written by end_row()
};

}  // namespace qec
