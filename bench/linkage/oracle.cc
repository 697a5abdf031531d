#include "bench/linkage/oracle.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "datagen/accidents.h"
#include "datagen/atlas.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace linkbench {

uint64_t HashJoinPairCount(const datagen::TestCase& tc) {
  std::unordered_map<std::string, uint64_t> parents;
  parents.reserve(tc.parent.size() * 2);
  for (const storage::Tuple& row : tc.parent.rows()) {
    ++parents[row.at(datagen::kAtlasLocationColumn).AsString()];
  }
  uint64_t pairs = 0;
  for (const storage::Tuple& row : tc.child.rows()) {
    const auto it =
        parents.find(row.at(datagen::kAccidentsLocationColumn).AsString());
    if (it != parents.end()) pairs += it->second;
  }
  return pairs;
}

bool PairSetIncluded(std::vector<uint64_t> inner, std::vector<uint64_t> outer) {
  std::sort(inner.begin(), inner.end());
  std::sort(outer.begin(), outer.end());
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

bool PairsMeetThreshold(const storage::Relation& result, double threshold,
                        int q) {
  const auto child_col = result.schema().IndexOf("location");
  const auto parent_col = result.schema().IndexOf("location_r");
  if (!child_col.has_value() || !parent_col.has_value()) return false;
  text::QGramOptions options;
  options.q = q;
  for (const storage::Tuple& row : result.rows()) {
    const std::string& child = row.at(*child_col).AsString();
    const std::string& parent = row.at(*parent_col).AsString();
    if (child == parent) continue;
    const double sim = text::Jaccard(text::GramSet::Of(child, options),
                                     text::GramSet::Of(parent, options));
    // The engine verifies from the same (size, size, overlap) triple;
    // the slack only absorbs a different rounding order.
    if (sim < threshold - 1e-12) return false;
  }
  return true;
}

bool EachChildMatchesItsParent(const std::vector<uint64_t>& pairs,
                               const std::vector<size_t>& true_parent) {
  if (pairs.size() != true_parent.size()) return false;
  std::vector<uint8_t> seen(true_parent.size(), 0);
  for (uint64_t key : pairs) {
    const uint64_t child = key >> 32;
    const uint64_t parent = key & 0xffffffffULL;
    if (child >= true_parent.size() || seen[child] != 0) return false;
    if (parent != true_parent[child]) return false;
    seen[child] = 1;
  }
  return true;
}

uint64_t DistinctChildren(const std::vector<uint64_t>& pairs) {
  std::vector<uint64_t> children;
  children.reserve(pairs.size());
  for (uint64_t key : pairs) children.push_back(key >> 32);
  std::sort(children.begin(), children.end());
  return static_cast<uint64_t>(
      std::unique(children.begin(), children.end()) - children.begin());
}

}  // namespace linkbench
}  // namespace aqp
