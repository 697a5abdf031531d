#include "join/join_types.h"

#include "common/macros.h"

namespace aqp {
namespace join {

Status JoinSpec::Validate() const {
  AQP_RETURN_IF_ERROR(qgram.Validate());
  if (sim_threshold <= 0.0 || sim_threshold > 1.0) {
    // 0 is rejected deliberately: a gram-index join can only surface
    // pairs sharing at least one gram, so "similarity >= 0" (a cross
    // join) is not expressible.
    return Status::InvalidArgument("sim_threshold must be in (0, 1], got " +
                                   std::to_string(sim_threshold));
  }
  return Status::OK();
}

Status JoinSpec::ValidateAgainstSchemas(const storage::Schema& left,
                                        const storage::Schema& right) const {
  AQP_RETURN_IF_ERROR(Validate());
  auto check = [](const storage::Schema& schema, size_t column,
                  const char* side_name) -> Status {
    if (column >= schema.num_fields()) {
      return Status::InvalidArgument(
          std::string(side_name) + " join column " + std::to_string(column) +
          " out of range for schema " + schema.ToString());
    }
    if (schema.field(column).type != storage::ValueType::kString) {
      return Status::InvalidArgument(
          std::string(side_name) + " join column '" +
          schema.field(column).name + "' must be a string column");
    }
    return Status::OK();
  };
  AQP_RETURN_IF_ERROR(check(left, left_column, "left"));
  AQP_RETURN_IF_ERROR(check(right, right_column, "right"));
  return Status::OK();
}

const char* MatchKindName(MatchKind kind) {
  return kind == MatchKind::kExact ? "exact" : "approximate";
}

const char* ProbeModeName(ProbeMode mode) {
  return mode == ProbeMode::kExact ? "exact" : "approximate";
}

storage::Schema JoinOutputSchema(const storage::Schema& left,
                                 const storage::Schema& right,
                                 bool with_similarity) {
  storage::Schema out = left.ConcatWith(right, "_r");
  if (with_similarity) {
    out = out.WithField({"sim", storage::ValueType::kDouble});
  }
  return out;
}

}  // namespace join
}  // namespace aqp
