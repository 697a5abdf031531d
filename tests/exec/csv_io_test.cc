#include "exec/csv_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "exec/scan.h"
#include "storage/relation.h"
#include "storage/relation_io.h"

namespace aqp {
namespace exec {
namespace {

using storage::Field;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"loc", ValueType::kString},
                 {"lat", ValueType::kDouble}});
}

TEST(CsvSourceTest, ParsesTypedColumnsDirectly) {
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "1,alpha,0.5\n"
                   "2,\"beta, quoted\",-1.25\n"
                   "3,gamma,\n");
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  ASSERT_TRUE(source.NextColumnBatch(&batch).ok());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.Int64At(0, 0), 1);
  EXPECT_EQ(batch.StringAt(1, 1), "beta, quoted");
  EXPECT_DOUBLE_EQ(batch.DoubleAt(2, 1), -1.25);
  EXPECT_TRUE(batch.IsNull(2, 2));  // empty non-string cell is NULL
  // End-of-stream: an empty batch.
  ASSERT_TRUE(source.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
  ASSERT_TRUE(source.Close().ok());
}

TEST(CsvSourceTest, AgreesWithReadRelationCsv) {
  const std::string text =
      "id,loc,lat\n"
      "10,\"has \"\"quotes\"\"\",3.25\n"
      "11,plain,0\n"
      "12,crlf line,-7.5\r\n"
      "13,last,2\n";
  std::istringstream in(text);
  auto relation = storage::ReadRelationCsv(TestSchema(), &in);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();

  CsvSource source(TestSchema(), text);
  auto collected = CollectAll(&source);
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  ASSERT_EQ(collected->size(), relation->size());
  for (size_t i = 0; i < relation->size(); ++i) {
    EXPECT_EQ(collected->row(i), relation->row(i)) << "row " << i;
  }
}

TEST(CsvSourceTest, SkipsBlankLinesLikeParseCsv) {
  // ParseCsv (and therefore ReadRelationCsv) silently skips blank
  // lines; the columnar reader must load such feeds identically.
  const std::string text = "id,loc,lat\n1,a,0.5\n\n2,b,1.5\r\n\n\n3,c,2.5\n\n";
  std::istringstream in(text);
  auto relation = storage::ReadRelationCsv(TestSchema(), &in);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  ASSERT_EQ(relation->size(), 3u);

  CsvSource source(TestSchema(), text);
  auto collected = CollectAll(&source);
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  ASSERT_EQ(collected->size(), relation->size());
  for (size_t i = 0; i < relation->size(); ++i) {
    EXPECT_EQ(collected->row(i), relation->row(i)) << "row " << i;
  }
}

TEST(CsvSourceTest, QuotedNewlinesAreContentAndKeepLineNumbersRight) {
  // A quoted field may span physical lines; the embedded newline is
  // content, and diagnostics after it must still report the right
  // physical line.
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "1,\"two\nlines\",0.5\n"
                   "bad,x,1\n");
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  const Status s = source.NextColumnBatch(&batch);
  ASSERT_FALSE(s.ok());
  // The malformed record starts on physical line 4 (the quoted field
  // consumed lines 2-3).
  EXPECT_NE(s.message().find("line 4"), std::string::npos) << s.ToString();

  CsvSource good(TestSchema(), "id,loc,lat\n1,\"two\nlines\",0.5\n");
  auto rows = CollectAll(&good);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->row(0).at(1).AsString(), "two\nlines");
}

TEST(CsvSourceTest, RejectsHeaderMismatch) {
  CsvSource source(TestSchema(), "id,wrong,lat\n1,a,0.5\n");
  EXPECT_FALSE(source.Open().ok());
}

TEST(CsvSourceTest, RejectsBadCellsWithLineNumbers) {
  CsvSource source(TestSchema(), "id,loc,lat\n1,a,0.5\nnope,b,1\n");
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  const Status s = source.NextColumnBatch(&batch);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  EXPECT_TRUE(batch.empty());  // partial batch discarded
}

TEST(CsvSourceTest, RejectsArityMismatch) {
  CsvSource source(TestSchema(), "id,loc,lat\n1,a\n");
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  EXPECT_FALSE(source.NextColumnBatch(&batch).ok());
}

TEST(CsvSourceQuarantineTest, SkipsCountsAndLogsBadRows) {
  CsvSourceOptions options;
  options.max_bad_rows = 4;
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "1,a,0.5\n"
                   "nope,b,1\n"          // unparsable int (line 3)
                   "2,c,2.5\n"
                   "3,d\n"               // too few cells (line 5)
                   "4,e,1.5,extra\n"     // too many cells (line 6)
                   "5,f,3.5\n",
                   options);
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 16);
  ASSERT_TRUE(source.NextColumnBatch(&batch).ok());
  // Good rows survive, in order, with nothing from the bad records.
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.Int64At(0, 0), 1);
  EXPECT_EQ(batch.Int64At(0, 1), 2);
  EXPECT_EQ(batch.Int64At(0, 2), 5);
  EXPECT_EQ(batch.StringAt(1, 2), "f");
  // The quarantine log names each skipped record and why.
  EXPECT_EQ(source.bad_rows(), 3u);
  ASSERT_EQ(source.quarantine_log().size(), 3u);
  EXPECT_EQ(source.quarantine_log()[0].line, 3u);
  EXPECT_NE(source.quarantine_log()[0].reason.find("not an integer"),
            std::string::npos);
  EXPECT_EQ(source.quarantine_log()[1].line, 5u);
  EXPECT_EQ(source.quarantine_log()[2].line, 6u);
  ASSERT_TRUE(source.Close().ok());
}

TEST(CsvSourceQuarantineTest, CapExceededIsResourceExhausted) {
  CsvSourceOptions options;
  options.max_bad_rows = 1;
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "bad1,a,1\n"
                   "bad2,b,2\n"
                   "1,c,3\n",
                   options);
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 16);
  const Status s = source.NextColumnBatch(&batch);
  ASSERT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_TRUE(batch.empty());  // failed batch discarded, as ever
  EXPECT_EQ(source.bad_rows(), 1u);  // the cap itself, not the breaker
}

TEST(CsvSourceQuarantineTest, DefaultRemainsStrict) {
  CsvSource source(TestSchema(), "id,loc,lat\n1,a,0.5\nnope,b,1\n");
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  EXPECT_FALSE(source.NextColumnBatch(&batch).ok());
}

TEST(CsvSourceQuarantineTest, UnterminatedQuoteStaysHardError) {
  // With the closing quote missing the record boundary is unknowable;
  // quarantine must not mask it.
  CsvSourceOptions options;
  options.max_bad_rows = 10;
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "1,\"never closed,0.5\n"
                   "2,b,1.5\n",
                   options);
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  const Status s = source.NextColumnBatch(&batch);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unterminated"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(source.bad_rows(), 0u);
}

TEST(CsvSourceQuarantineTest, QuarantinedQuotedFieldResyncsPastItsNewlines) {
  // The bad record's quoted field spans physical lines; resync must
  // honor the quotes and land on the next record, not inside the field.
  CsvSourceOptions options;
  options.max_bad_rows = 2;
  CsvSource source(TestSchema(),
                   "id,loc,lat\n"
                   "nope,\"multi\nline\",1\n"
                   "7,ok,2.5\n",
                   options);
  ASSERT_TRUE(source.Open().ok());
  storage::ColumnBatch batch(&source.output_schema(), 8);
  ASSERT_TRUE(source.NextColumnBatch(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.Int64At(0, 0), 7);
  EXPECT_EQ(source.bad_rows(), 1u);
  EXPECT_EQ(source.quarantine_log()[0].line, 2u);
}

TEST(CsvSourceQuarantineTest, ReopenResetsTheQuarantineLog) {
  CsvSourceOptions options;
  options.max_bad_rows = 2;
  CsvSource source(TestSchema(), "id,loc,lat\nbad,a,1\n5,b,2.5\n", options);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(source.Open().ok());
    storage::ColumnBatch batch(&source.output_schema(), 8);
    ASSERT_TRUE(source.NextColumnBatch(&batch).ok());
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(source.bad_rows(), 1u) << "pass " << pass;
    ASSERT_TRUE(source.Close().ok());
  }
}

TEST(WriteOperatorCsvTest, MatchesWriteRelationCsv) {
  Relation relation(TestSchema());
  ASSERT_TRUE(relation.Append(Tuple{Value(1), Value("alpha"), Value(0.5)}).ok());
  ASSERT_TRUE(
      relation.Append(Tuple{Value(2), Value("with, comma"), Value()}).ok());
  ASSERT_TRUE(
      relation.Append(Tuple{Value(3), Value("q\"uote"), Value(1e-9)}).ok());

  std::ostringstream expected;
  storage::WriteRelationCsv(relation, &expected);

  RelationScan scan(&relation);
  std::ostringstream actual;
  auto written = WriteOperatorCsv(&scan, &actual);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, relation.size());
  // WriteRelationCsv is this sink over a relation scan: same bytes,
  // and they parse back to the same rows.
  EXPECT_EQ(actual.str(), expected.str());
  CsvSource reparse(TestSchema(), actual.str());
  auto round_trip = CollectAll(&reparse);
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  ASSERT_EQ(round_trip->size(), relation.size());
  for (size_t i = 0; i < relation.size(); ++i) {
    EXPECT_EQ(round_trip->row(i), relation.row(i)) << "row " << i;
  }
}

}  // namespace
}  // namespace exec
}  // namespace aqp
