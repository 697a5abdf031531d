#include "datagen/accidents.h"

#include <cmath>

#include "common/random.h"
#include "storage/schema.h"

namespace aqp {
namespace datagen {

Result<AccidentsData> GenerateAccidents(const storage::Relation& atlas,
                                        size_t atlas_location_column,
                                        const AccidentsOptions& options) {
  if (atlas.empty()) {
    return Status::InvalidArgument("atlas must not be empty");
  }
  if (options.size == 0) {
    return Status::InvalidArgument("accidents size must be positive");
  }
  storage::Schema schema({{"accident_id", storage::ValueType::kInt64},
                          {"location", storage::ValueType::kString},
                          {"severity", storage::ValueType::kInt64},
                          {"day", storage::ValueType::kInt64}});
  AccidentsData data;
  data.table = storage::Relation(schema);
  data.true_parent_row.reserve(options.size);

  Rng rng(options.seed);

  // Optional skew: rank-based approximate Zipf via inverse-CDF over
  // precomputed cumulative weights.
  std::vector<double> cumulative;
  if (options.zipf_locations) {
    cumulative.resize(atlas.size());
    double total = 0.0;
    for (size_t r = 0; r < atlas.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1),
                              options.zipf_exponent);
      cumulative[r] = total;
    }
    for (double& c : cumulative) c /= total;
  }
  auto draw_parent = [&]() -> size_t {
    if (!options.zipf_locations) return rng.Index(atlas.size());
    const double u = rng.NextDouble();
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<size_t>(it - cumulative.begin());
  };

  for (size_t i = 0; i < options.size; ++i) {
    const size_t parent_row = draw_parent();
    data.true_parent_row.push_back(parent_row);
    storage::ColumnBatch* out = data.table.TailForAppend();
    out->AppendInt64(0, static_cast<int64_t>(i));
    out->AppendString(1, atlas.StringAt(atlas_location_column, parent_row));
    out->AppendInt64(2, rng.Uniform(1, 5));
    out->AppendInt64(3, rng.Uniform(19000, 20500));  // epoch days
    out->CommitRow();
  }
  return data;
}

}  // namespace datagen
}  // namespace aqp
