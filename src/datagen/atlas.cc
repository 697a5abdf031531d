#include "datagen/atlas.h"

#include <unordered_set>

#include "datagen/names.h"
#include "storage/schema.h"

namespace aqp {
namespace datagen {

Result<storage::Relation> GenerateAtlas(const AtlasOptions& options) {
  if (options.size == 0) {
    return Status::InvalidArgument("atlas size must be positive");
  }
  storage::Schema schema({{"location", storage::ValueType::kString},
                          {"municipality_id", storage::ValueType::kInt64},
                          {"lat", storage::ValueType::kDouble},
                          {"lon", storage::ValueType::kDouble}});
  storage::Relation atlas(schema);

  Rng rng(options.seed);
  LocationNameGenerator names(options.min_name_length);
  std::unordered_set<std::string> seen;
  seen.reserve(options.size * 2);
  size_t failures = 0;
  while (atlas.size() < options.size) {
    std::string location = names.Generate(&rng);
    if (!seen.insert(location).second) {
      // Duplicate draw; the name space is much larger than any
      // realistic atlas, so long duplicate streaks indicate a
      // configuration problem.
      if (++failures > options.size * 10 + 1000) {
        return Status::ResourceExhausted(
            "atlas generator exhausted the name space; reduce size");
      }
      continue;
    }
    const auto id = static_cast<int64_t>(atlas.size());
    // Synthetic coordinates roughly within Italy's bounding box.
    const double lat = 36.0 + rng.NextDouble() * 11.0;
    const double lon = 6.6 + rng.NextDouble() * 12.0;
    storage::ColumnBatch* out = atlas.TailForAppend();
    out->AppendString(0, location);
    out->AppendInt64(1, id);
    out->AppendDouble(2, lat);
    out->AppendDouble(3, lon);
    out->CommitRow();
  }
  return atlas;
}

}  // namespace datagen
}  // namespace aqp
