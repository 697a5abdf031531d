#ifndef AQP_STORAGE_RELATION_IO_H_
#define AQP_STORAGE_RELATION_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "common/result.h"
#include "storage/relation.h"

namespace aqp {
namespace storage {

/// \brief CSV import/export for relations — how real feeds enter and
/// leave the engine outside of the synthetic generators.
/// @{

/// Writes `relation` as CSV with a header row of column names, as
/// exec::WriteOperatorCsv does (shortest round-trip doubles).
void WriteRelationCsv(const Relation& relation, std::ostream* out);

/// Reads a CSV with a header row into a relation typed by `schema`, by
/// draining an exec::CsvSource: a file loads the same through either
/// reader. The header must match the schema's column names in order.
/// Cells are parsed per column type; empty cells become NULL. Fails
/// with InvalidArgument on header/type mismatches (line number
/// included).
Result<Relation> ReadRelationCsv(const Schema& schema, std::istream* in);

/// Convenience: file-path variants.
Status WriteRelationCsvFile(const Relation& relation,
                            const std::string& path);
Result<Relation> ReadRelationCsvFile(const Schema& schema,
                                     const std::string& path);
/// @}

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_RELATION_IO_H_
