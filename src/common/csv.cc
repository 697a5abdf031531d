#include "common/csv.h"

#include <algorithm>

#include "common/string_util.h"

namespace aqp {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) (*out_) << ',';
    const bool plain = fields[i].find_first_of(",\"\n\r") == std::string::npos;
    (*out_) << (plain ? fields[i] : Escape(fields[i]));
  }
  (*out_) << '\n';
}

std::string CsvWriter::Field(double value) {
  // Shortest representation that round-trips: metrics/report CSVs carry
  // measured times and p-values whose consumers re-parse them, so the
  // default precision-6 truncation is a correctness bug, not a
  // formatting choice. Shared with Value::ToString so the two double
  // renderings agree.
  return FormatDoubleShortest(value);
}

std::string CsvWriter::Field(int64_t value) { return std::to_string(value); }
std::string CsvWriter::Field(uint64_t value) { return std::to_string(value); }

std::string CsvWriter::Escape(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

Status ParseCsv(const std::string& text,
                std::vector<std::vector<std::string>>* rows) {
  rows->clear();
  // Bulk-load reserve: one row per newline (upper bound; blank lines
  // and a missing trailing newline only leave slack).
  rows->reserve(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_data = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_data = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        row_has_data = true;
        break;
      case '\r':
        // Only the CR of a CRLF line ending is metadata; a bare CR is
        // field data and must survive the round trip.
        if (i + 1 < text.size() && text[i + 1] == '\n') break;
        field.push_back(c);
        row_has_data = true;
        break;
      case '\n':
        if (row_has_data || !field.empty() || !row.empty()) {
          row.push_back(std::move(field));
          field.clear();
          rows->push_back(std::move(row));
          row.clear();
          // The moved-from vector lost its buffer; size the fresh one
          // like the header so later cells never reallocate.
          row.reserve(rows->front().size());
          row_has_data = false;
        }
        break;
      default:
        field.push_back(c);
        row_has_data = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quote in CSV input");
  }
  if (row_has_data || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace aqp
