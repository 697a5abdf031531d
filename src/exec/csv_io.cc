#include "exec/csv_io.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/macros.h"

namespace aqp {
namespace exec {

CsvSource::CsvSource(storage::Schema schema, std::string csv_text,
                     CsvSourceOptions options)
    : schema_(std::move(schema)),
      text_(std::move(csv_text)),
      options_(options) {}

Result<CsvSource> CsvSource::FromFile(storage::Schema schema,
                                      const std::string& path,
                                      CsvSourceOptions options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return CsvSource(std::move(schema), std::move(buffer).str(), options);
}

Status CsvSource::ScanField(std::string_view* field, bool* end_of_record) {
  *end_of_record = false;
  if (pos_ < text_.size() && text_[pos_] == '"') {
    // Quoted field: unescape doubled quotes into the scratch buffer.
    scratch_.clear();
    ++pos_;
    while (true) {
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("line " + std::to_string(line_) +
                                       ": unterminated quoted field");
      }
      const char c = text_[pos_];
      if (c == '"') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '"') {
          scratch_.push_back('"');
          pos_ += 2;
          continue;
        }
        ++pos_;  // closing quote
        break;
      }
      // Embedded newlines are field content, but still advance the
      // physical line counter so later diagnostics point at the right
      // line.
      if (c == '\n') ++line_;
      scratch_.push_back(c);
      ++pos_;
    }
    *field = scratch_;
  } else {
    // Unquoted field: a view straight into the text. Only CRLF or LF
    // terminate the record; a bare \r is field content.
    const size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == '\n') break;
      if (c == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
        break;
      }
      ++pos_;
    }
    *field = std::string_view(text_.data() + begin, pos_ - begin);
  }
  // Field terminator.
  if (pos_ >= text_.size()) {
    *end_of_record = true;
    return Status::OK();
  }
  const char c = text_[pos_];
  if (c == ',') {
    ++pos_;
    return Status::OK();
  }
  if (c == '\n') {
    ++pos_;
    ++line_;
    *end_of_record = true;
    return Status::OK();
  }
  if (c == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
    pos_ += 2;
    ++line_;
    *end_of_record = true;
    return Status::OK();
  }
  return Status::InvalidArgument("line " + std::to_string(line_) +
                                 ": unexpected character after quoted field");
}

bool CsvSource::SkipBlankLines() {
  // ParseCsv's dialect skips blank lines anywhere in the input; match
  // it so text loads alike through both parsers.
  while (pos_ < text_.size()) {
    if (text_[pos_] == '\n') {
      ++pos_;
      ++line_;
    } else if (text_[pos_] == '\r' && pos_ + 1 < text_.size() &&
               text_[pos_ + 1] == '\n') {
      pos_ += 2;
      ++line_;
    } else {
      break;
    }
  }
  return pos_ < text_.size();
}

Status CsvSource::ScanRecordInto(storage::ColumnBatch* out) {
  const size_t record_line = line_;
  bool end_of_record = false;
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    if (end_of_record) {
      return Status::InvalidArgument(
          "line " + std::to_string(record_line) + " has " +
          std::to_string(col) + " cells, expected " +
          std::to_string(schema_.num_fields()));
    }
    std::string_view field;
    AQP_RETURN_IF_ERROR(ScanField(&field, &end_of_record));
    const storage::Field& spec = schema_.field(col);
    if (field.empty() && spec.type != storage::ValueType::kString) {
      out->AppendNull(col);
      continue;
    }
    switch (spec.type) {
      case storage::ValueType::kInt64: {
        int64_t v = 0;
        const auto result =
            std::from_chars(field.data(), field.data() + field.size(), v);
        if (result.ec != std::errc() ||
            result.ptr != field.data() + field.size()) {
          return Status::InvalidArgument(
              "line " + std::to_string(record_line) + ", column '" +
              spec.name + "': not an integer: '" + std::string(field) + "'");
        }
        out->AppendInt64(col, v);
        break;
      }
      case storage::ValueType::kDouble: {
        // strtod needs NUL termination; the reused cell scratch keeps
        // this allocation-free in steady state.
        cell_scratch_.assign(field);
        char* end = nullptr;
        const double v = std::strtod(cell_scratch_.c_str(), &end);
        if (end == cell_scratch_.c_str() || *end != '\0') {
          return Status::InvalidArgument(
              "line " + std::to_string(record_line) + ", column '" +
              spec.name + "': not a number: '" + std::string(field) + "'");
        }
        out->AppendDouble(col, v);
        break;
      }
      default:
        out->AppendString(col, field);
        break;
    }
  }
  if (!end_of_record) {
    // More cells than the schema has columns.
    std::string_view extra;
    bool eor = false;
    size_t cells = schema_.num_fields();
    while (!eor) {
      AQP_RETURN_IF_ERROR(ScanField(&extra, &eor));
      ++cells;
    }
    return Status::InvalidArgument(
        "line " + std::to_string(record_line) + " has " +
        std::to_string(cells) + " cells, expected " +
        std::to_string(schema_.num_fields()));
  }
  out->CommitRow();
  return Status::OK();
}

Status CsvSource::SkipRecord() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      // Quoted section: record terminators inside it are content.
      ++pos_;
      while (true) {
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_) +
              ": unterminated quoted field (cannot resynchronize)");
        }
        const char q = text_[pos_];
        if (q == '"') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '"') {
            pos_ += 2;
            continue;
          }
          ++pos_;
          break;
        }
        if (q == '\n') ++line_;
        ++pos_;
      }
      continue;
    }
    if (c == '\n') {
      ++pos_;
      ++line_;
      return Status::OK();
    }
    if (c == '\r' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
      pos_ += 2;
      ++line_;
      return Status::OK();
    }
    ++pos_;
  }
  return Status::OK();  // EOF ends the record
}

Status CsvSource::ScanRecordQuarantining(storage::ColumnBatch* out,
                                         bool* committed) {
  const size_t record_pos = pos_;
  const size_t record_line = line_;
  Status parsed = ScanRecordInto(out);
  if (parsed.ok()) {
    *committed = true;
    return Status::OK();
  }
  *committed = false;
  if (options_.max_bad_rows == 0) return parsed;
  out->AbandonRow();
  // Resync from the record's start; only an unterminated quote defeats
  // this (the record boundary itself is lost), and stays a hard error.
  pos_ = record_pos;
  line_ = record_line;
  AQP_RETURN_IF_ERROR(SkipRecord());
  if (quarantine_.size() >= options_.max_bad_rows) {
    return Status::ResourceExhausted(
        "quarantine cap of " + std::to_string(options_.max_bad_rows) +
        " bad row(s) exceeded; next bad record: " + parsed.message());
  }
  quarantine_.push_back(QuarantinedRow{record_line, parsed.message()});
  return Status::OK();
}

Status CsvSource::Open() {
  if (open_) return Status::FailedPrecondition("CsvSource already open");
  AQP_FAILPOINT(fail::site::kCsvOpen);
  pos_ = 0;
  line_ = 1;
  quarantine_.clear();
  if (text_.empty()) {
    return Status::InvalidArgument("CSV input is empty (no header row)");
  }
  // Validate the header against the schema.
  bool end_of_record = false;
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    if (end_of_record) {
      return Status::InvalidArgument(
          "CSV header has " + std::to_string(col) +
          " columns but the schema expects " +
          std::to_string(schema_.num_fields()));
    }
    std::string_view field;
    AQP_RETURN_IF_ERROR(ScanField(&field, &end_of_record));
    if (field != schema_.field(col).name) {
      return Status::InvalidArgument(
          "CSV header column " + std::to_string(col) + " is '" +
          std::string(field) + "' but the schema expects '" +
          schema_.field(col).name + "'");
    }
  }
  if (!end_of_record) {
    return Status::InvalidArgument(
        "CSV header has more columns than the schema's " +
        std::to_string(schema_.num_fields()));
  }
  open_ = true;
  return Status::OK();
}

Status CsvSource::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("CsvSource not open");
  AQP_FAILPOINT(fail::site::kCsvRead);
  out->Reset(&schema_);
  while (!out->full() && SkipBlankLines()) {
    bool committed = false;
    Status s = ScanRecordQuarantining(out, &committed);
    if (!s.ok()) {
      out->Clear();
      return s;
    }
  }
  return Status::OK();
}

Status CsvSource::Close() {
  if (!open_) return Status::FailedPrecondition("CsvSource not open");
  open_ = false;
  return Status::OK();
}

Result<size_t> WriteOperatorCsv(Operator* op, std::ostream* out,
                                const ExecOptions& options) {
  AQP_RETURN_IF_ERROR(op->Open());
  CsvWriter csv(out);
  const storage::Schema& schema = op->output_schema();
  std::vector<std::string> row;
  row.reserve(schema.num_fields());
  for (const storage::Field& f : schema.fields()) row.push_back(f.name);
  csv.WriteRow(row);

  size_t written = 0;
  storage::ColumnBatch batch(&schema, options.batch_size);
  row.assign(schema.num_fields(), std::string());
  while (true) {
    Status s = op->NextColumnBatch(&batch);
    if (!s.ok()) {
      (void)op->Close();
      return s;
    }
    if (batch.empty()) break;
    // Cells stream straight out of the columns; the reused field
    // buffers keep the steady state allocation-light and no row
    // payload ever exists.
    for (size_t r = 0; r < batch.size(); ++r) {
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        if (batch.IsNull(c, r)) {
          row[c].clear();
          continue;
        }
        switch (batch.column_type(c)) {
          case storage::ValueType::kInt64:
            row[c] = CsvWriter::Field(batch.Int64At(c, r));
            break;
          case storage::ValueType::kDouble:
            row[c] = CsvWriter::Field(batch.DoubleAt(c, r));
            break;
          default:
            row[c].assign(batch.StringAt(c, r));
            break;
        }
      }
      csv.WriteRow(row);
      ++written;
    }
  }
  AQP_RETURN_IF_ERROR(op->Close());
  return written;
}

}  // namespace exec
}  // namespace aqp
