#include "exec/stream.h"

#include <gtest/gtest.h>

namespace aqp {
namespace exec {
namespace {

using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema OneCol() { return Schema({{"s", ValueType::kString}}); }

TEST(GeneratorSourceTest, ProducesUntilNullopt) {
  int counter = 0;
  GeneratorSource src(OneCol(), [&]() -> std::optional<Tuple> {
    if (counter >= 3) return std::nullopt;
    return Tuple{Value("t" + std::to_string(counter++))};
  });
  ASSERT_TRUE(src.Open().ok());
  storage::ColumnBatch batch(&src.output_schema(), 2);
  std::vector<std::string> produced;
  while (true) {
    ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      produced.emplace_back(batch.StringAt(0, i));
    }
  }
  EXPECT_EQ(produced, (std::vector<std::string>{"t0", "t1", "t2"}));
  // Stays at EOS even if the generator could produce again.
  counter = 0;
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
}

TEST(GeneratorSourceTest, LifecycleErrors) {
  GeneratorSource src(OneCol(), []() { return std::nullopt; });
  storage::ColumnBatch batch(&src.output_schema());
  EXPECT_TRUE(src.NextColumnBatch(&batch).IsFailedPrecondition());
  ASSERT_TRUE(src.Open().ok());
  EXPECT_TRUE(src.Open().IsFailedPrecondition());
}

}  // namespace
}  // namespace exec
}  // namespace aqp
