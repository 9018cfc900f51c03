#include "common/csv.hpp"

#include <cstdio>

namespace qec {

CsvWriter::CsvWriter(const std::string& path,
                     std::vector<std::string> header)
    : out_(path), columns_(header.size()) {
  if (!out_) return;
  add_row(header);
}

CsvWriter& CsvWriter::append(std::string_view text) {
  if (fields_++) line_ += ',';
  line_ += text;
  return *this;
}

CsvWriter& CsvWriter::operator<<(std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    return append(field);
  }
  if (fields_++) line_ += ',';
  line_ += '"';
  for (char ch : field) {
    if (ch == '"') line_ += '"';
    line_ += ch;
  }
  line_ += '"';
  return *this;
}

void CsvWriter::end_row() {
  // Pad short rows so every line has the header's column count.
  for (std::size_t i = fields_; i < columns_; ++i) line_ += ',';
  line_ += '\n';
  if (out_) {
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }
  line_.clear();
  fields_ = 0;
}

void CsvWriter::add_row(const std::vector<std::string>& row) {
  for (const std::string& field : row) *this << field;
  end_row();
}

void CsvWriter::add_row(const std::vector<double>& row) {
  if (!out_) return;
  std::vector<std::string> text;
  text.reserve(row.size());
  char buf[64];
  for (double v : row) {
    std::snprintf(buf, sizeof(buf), "%.8g", v);
    text.emplace_back(buf);
  }
  add_row(text);
}

}  // namespace qec
