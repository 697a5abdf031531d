#ifndef AQP_EXEC_STREAM_H_
#define AQP_EXEC_STREAM_H_

#include <functional>
#include <optional>
#include <string>

#include "exec/operator.h"

namespace aqp {
namespace exec {

/// \brief Source that draws tuples from a generator function.
///
/// The callback returns the next tuple or nullopt at end-of-stream;
/// useful for unbounded synthetic streams in tests and benches.
class GeneratorSource : public Operator {
 public:
  using Generator = std::function<std::optional<storage::Tuple>()>;

  GeneratorSource(storage::Schema schema, Generator generator)
      : schema_(std::move(schema)), generator_(std::move(generator)) {}

  Status Open() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "GeneratorSource"; }

 private:
  storage::Schema schema_;
  Generator generator_;
  bool open_ = false;
  bool done_ = false;
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_STREAM_H_
