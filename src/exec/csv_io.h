#ifndef AQP_EXEC_CSV_IO_H_
#define AQP_EXEC_CSV_IO_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operator.h"
#include "storage/schema.h"

namespace aqp {
namespace exec {

/// Tuning knobs for CsvSource's tolerance of malformed input.
struct CsvSourceOptions {
  /// Maximum number of malformed records to quarantine (skip and log)
  /// before the scan fails hard. 0 — the default — keeps the strict
  /// behavior: the first malformed record is an error. When positive,
  /// structurally recoverable bad records (wrong cell count, unparsable
  /// number, stray character after a quote) are skipped, counted, and
  /// logged; an unterminated quoted field is never recoverable because
  /// the record boundary itself is lost. Quarantining the
  /// (max_bad_rows + 1)-th record returns kResourceExhausted.
  size_t max_bad_rows = 0;
};

/// One skipped record from CsvSource's quarantine log.
struct QuarantinedRow {
  /// 1-based line number where the record began.
  size_t line = 0;
  /// The parse error that disqualified the record.
  std::string reason;
};

/// \brief Columnar CSV source: an operator that parses CSV text
/// straight into ColumnBatch column vectors — how real feeds enter the
/// engine without ever constructing row objects.
///
/// The scanner is incremental and RFC-4180-style (quotes honoured,
/// CRLF or LF line endings, bare \r is field content — matching
/// common/csv.h's ParseCsv): each NextColumnBatch call scans up to
/// `capacity()` records, writing unquoted string fields as views
/// copied text→arena, int64/double fields parsed into the typed
/// vectors, and empty non-string cells as NULL. The header row is
/// validated against the schema at Open. storage::ReadRelationCsv
/// drains this source, so both readers accept and reject alike.
///
/// Malformed input is a hard error by default; with
/// CsvSourceOptions::max_bad_rows > 0 the scanner instead quarantines
/// up to that many bad records — each skipped record is counted and
/// logged with its line number and reason (see quarantine_log()), and
/// the scan resynchronizes at the next record boundary. Completeness
/// accounting upstream reads bad_rows() so a partial feed is reported,
/// never silent.
class CsvSource : public Operator {
 public:
  /// Parses `csv_text` (with a header row) as rows of `schema`.
  CsvSource(storage::Schema schema, std::string csv_text,
            CsvSourceOptions options = {});

  /// File convenience: reads the whole file at construction (no handle
  /// is retained afterwards).
  static Result<CsvSource> FromFile(storage::Schema schema,
                                    const std::string& path,
                                    CsvSourceOptions options = {});

  Status Open() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "CsvSource"; }

  /// 1-based line number of the next unparsed record (diagnostics).
  size_t line() const { return line_; }

  /// Number of malformed records quarantined so far this scan.
  size_t bad_rows() const { return quarantine_.size(); }

  /// Per-record log of what was quarantined and why.
  const std::vector<QuarantinedRow>& quarantine_log() const {
    return quarantine_;
  }

 private:
  /// Advances pos_ past blank lines (ParseCsv skips them; so do we).
  /// Returns true iff unconsumed input remains.
  bool SkipBlankLines();

  /// Scans one raw field at pos_. Unquoted content is a view into the
  /// text; quoted content is unescaped into scratch_ (the view then
  /// aliases scratch_, valid until the next scan). Sets *end_of_record
  /// when the field was terminated by a line ending or EOF.
  Status ScanField(std::string_view* field, bool* end_of_record);

  /// Parses one record's cells into `out` (no CommitRow on error).
  Status ScanRecordInto(storage::ColumnBatch* out);

  /// Advances pos_ past the rest of the current record (fields and
  /// quoted sections honoured) to the start of the next one. Fails only
  /// on an unterminated quoted field, where the record boundary is
  /// unknowable.
  Status SkipRecord();

  /// Scans one record into `out`, applying the quarantine policy:
  /// on a recoverable parse error with budget left, abandons the
  /// half-built row, logs the record, resyncs to the next record, and
  /// reports *committed = false with an OK status.
  Status ScanRecordQuarantining(storage::ColumnBatch* out, bool* committed);

  storage::Schema schema_;
  std::string text_;
  CsvSourceOptions options_;
  std::vector<QuarantinedRow> quarantine_;
  size_t pos_ = 0;
  size_t line_ = 1;
  std::string scratch_;
  std::string cell_scratch_;
  bool open_ = false;
};

/// Drains `op` (Open/NextColumnBatch*/Close) to `out` as CSV with a
/// header row of column names, writing each cell directly from the
/// output batches' columns — the CSV sink never materializes a row
/// payload. Doubles are written with shortest round-trip formatting
/// (CsvWriter::Field). Returns the number of data rows written.
Result<size_t> WriteOperatorCsv(Operator* op, std::ostream* out,
                                const ExecOptions& options = {});

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_CSV_IO_H_
