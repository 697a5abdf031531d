#ifndef AQP_COMMON_CSV_H_
#define AQP_COMMON_CSV_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace aqp {

/// \brief Minimal RFC-4180-style CSV writer used by the experiment
/// harness to dump machine-readable results next to the human tables.
class CsvWriter {
 public:
  /// Writes rows to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream* out) : out_(out) {}

  /// Writes a header or data row, quoting fields as needed.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with the shortest representation
  /// that round-trips.
  static std::string Field(double value);
  static std::string Field(int64_t value);
  static std::string Field(uint64_t value);

 private:
  static std::string Escape(const std::string& field);
  std::ostream* out_;
};

/// \brief Parses CSV text into rows of fields (quotes honoured).
/// Used by tests to round-trip harness output.
Status ParseCsv(const std::string& text,
                std::vector<std::vector<std::string>>* rows);

}  // namespace aqp

#endif  // AQP_COMMON_CSV_H_
