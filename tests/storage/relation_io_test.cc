#include "storage/relation_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/csv_io.h"
#include "exec/operator.h"

namespace aqp {
namespace storage {
namespace {

Schema MixedSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"location", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

Relation MixedRelation() {
  Relation r(MixedSchema());
  EXPECT_TRUE(
      r.Append(Tuple{Value(1), Value("TAA BZ SANTA"), Value(0.5)}).ok());
  EXPECT_TRUE(
      r.Append(Tuple{Value(2), Value("with,comma"), Value(-1.25)}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value(), Value("x\"quote"), Value()}).ok());
  return r;
}

TEST(RelationIoTest, RoundTripsMixedTypes) {
  const Relation original = MixedRelation();
  std::stringstream buffer;
  WriteRelationCsv(original, &buffer);
  auto loaded = ReadRelationCsv(MixedSchema(), &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->row(i), original.row(i)) << "row " << i;
  }
}

TEST(RelationIoTest, HeaderRowWritten) {
  std::stringstream buffer;
  WriteRelationCsv(MixedRelation(), &buffer);
  std::string first_line;
  std::getline(buffer, first_line);
  EXPECT_EQ(first_line, "id,location,score");
}

TEST(RelationIoTest, EmptyRelationStillHasHeader) {
  Relation empty(MixedSchema());
  std::stringstream buffer;
  WriteRelationCsv(empty, &buffer);
  auto loaded = ReadRelationCsv(MixedSchema(), &buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(RelationIoTest, RejectsEmptyInput) {
  std::stringstream buffer;
  EXPECT_TRUE(
      ReadRelationCsv(MixedSchema(), &buffer).status().IsInvalidArgument());
}

TEST(RelationIoTest, RejectsWrongHeader) {
  std::stringstream buffer("id,place,score\n1,x,0.5\n");
  auto loaded = ReadRelationCsv(MixedSchema(), &buffer);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("place"), std::string::npos);
}

TEST(RelationIoTest, RejectsArityMismatch) {
  std::stringstream buffer("id,location,score\n1,x\n");
  EXPECT_TRUE(
      ReadRelationCsv(MixedSchema(), &buffer).status().IsInvalidArgument());
}

TEST(RelationIoTest, RejectsBadIntegerWithLineNumber) {
  std::stringstream buffer("id,location,score\nnope,x,0.5\n");
  auto loaded = ReadRelationCsv(MixedSchema(), &buffer);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(RelationIoTest, EmptyCellsBecomeNull) {
  std::stringstream buffer("id,location,score\n,empty int and score,\n");
  auto loaded = ReadRelationCsv(MixedSchema(), &buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->row(0).at(0).is_null());
  EXPECT_TRUE(loaded->row(0).at(2).is_null());
  EXPECT_EQ(loaded->row(0).at(1).AsString(), "empty int and score");
}

TEST(RelationIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/relation_io_test.csv";
  const Relation original = MixedRelation();
  ASSERT_TRUE(WriteRelationCsvFile(original, path).ok());
  auto loaded = ReadRelationCsvFile(MixedSchema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(RelationIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadRelationCsvFile(MixedSchema(), "/nonexistent/nope.csv")
                  .status()
                  .IsIOError());
}

TEST(RelationIoTest, DoubleRoundTripPrecision) {
  Relation r(Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(r.Append(Tuple{Value(0.1)}).ok());
  ASSERT_TRUE(r.Append(Tuple{Value(1.0 / 3.0)}).ok());
  std::stringstream buffer;
  WriteRelationCsv(r, &buffer);
  auto loaded = ReadRelationCsv(r.schema(), &buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->row(0).at(0).AsDouble(), 0.1);
  EXPECT_DOUBLE_EQ(loaded->row(1).at(0).AsDouble(), 1.0 / 3.0);
}

/// Feeds one body under the mixed header to ReadRelationCsv and to a
/// drained CsvSource: same acceptance, same error, same cells.
void ExpectReadersAgree(const std::string& body) {
  SCOPED_TRACE(body);
  const std::string text = "id,location,score\n" + body;
  std::stringstream in(text);
  auto read = ReadRelationCsv(MixedSchema(), &in);
  exec::CsvSource source(MixedSchema(), text);
  auto drained = exec::CollectAll(&source);
  ASSERT_EQ(read.status().ToString(), drained.status().ToString());
  if (!read.ok()) return;
  ASSERT_EQ(read->size(), drained->size());
  for (size_t i = 0; i < read->size(); ++i) {
    EXPECT_EQ(read->row(i), drained->row(i)) << "row " << i;
  }
}

TEST(RelationIoTest, ReadersAcceptAndRejectAlike) {
  ExpectReadersAgree("1,x,0.5\n");
  ExpectReadersAgree("-7,x,\n");
  ExpectReadersAgree("99999999999999999999,x,0.5\n");
  ExpectReadersAgree(" 12,x,0.5\n");
  ExpectReadersAgree("+7,x,0.5\n");
  ExpectReadersAgree("12 ,x,0.5\n");
  ExpectReadersAgree("0x10,x,0.5\n");
  ExpectReadersAgree("1,x,nope\n");
  ExpectReadersAgree("1,x,1e3\n");
  ExpectReadersAgree("1,\"quoted, comma\",2\n");
  ExpectReadersAgree("1,x\n");
  ExpectReadersAgree("1,x,0.5,extra\n");
  ExpectReadersAgree("\n1,x,0.5\n\n2,y,\n");
}

TEST(RelationIoTest, RejectsIntegersOutOfRangeOrPadded) {
  for (const std::string cell : {"99999999999999999999", " 12", "+7"}) {
    std::stringstream in("id,location,score\n" + cell + ",x,0.5\n");
    auto loaded = ReadRelationCsv(MixedSchema(), &in);
    ASSERT_TRUE(loaded.status().IsInvalidArgument()) << cell;
    EXPECT_NE(loaded.status().message().find("not an integer"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
  }
}

TEST(RelationIoTest, WritesDoublesAsShortestRoundTrip) {
  Relation r(Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(r.Append(Tuple{Value(0.1)}).ok());
  ASSERT_TRUE(r.Append(Tuple{Value(1e-9)}).ok());
  std::stringstream buffer;
  WriteRelationCsv(r, &buffer);
  EXPECT_EQ(buffer.str(), "x\n0.1\n1e-09\n");
}

}  // namespace
}  // namespace storage
}  // namespace aqp
