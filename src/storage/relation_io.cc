#include "storage/relation_io.h"

#include <fstream>
#include <sstream>

#include "exec/csv_io.h"
#include "exec/operator.h"
#include "exec/scan.h"

namespace aqp {
namespace storage {

void WriteRelationCsv(const Relation& relation, std::ostream* out) {
  // One writer for relations and operators: the scan copies column
  // ranges and the sink formats cells straight from them. A relation
  // scan fails only under an armed scan.next failpoint.
  exec::RelationScan scan(&relation);
  (void)exec::WriteOperatorCsv(&scan, out);
}

Result<Relation> ReadRelationCsv(const Schema& schema, std::istream* in) {
  std::stringstream buffer;
  buffer << in->rdbuf();
  // One parser for both readers: the relation is CsvSource's batches,
  // so a file loads alike whichever way it enters the engine.
  exec::CsvSource source(schema, std::move(buffer).str());
  return exec::CollectAll(&source);
}

Status WriteRelationCsvFile(const Relation& relation,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  WriteRelationCsv(relation, &out);
  out.flush();
  if (!out) {
    return Status::IOError("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<Relation> ReadRelationCsvFile(const Schema& schema,
                                     const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadRelationCsv(schema, &in);
}

}  // namespace storage
}  // namespace aqp
