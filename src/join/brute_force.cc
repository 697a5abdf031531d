#include "join/brute_force.h"

#include <string_view>

#include "text/similarity.h"

namespace aqp {
namespace join {

std::vector<BrutePair> BruteForceExactJoin(const storage::Relation& left,
                                           const storage::Relation& right,
                                           const JoinSpec& spec) {
  std::vector<BrutePair> out;
  for (size_t i = 0; i < left.size(); ++i) {
    const std::string_view lkey = left.StringAt(spec.left_column, i);
    for (size_t j = 0; j < right.size(); ++j) {
      if (lkey == right.StringAt(spec.right_column, j)) {
        out.push_back(BrutePair{i, j, 1.0});
      }
    }
  }
  return out;
}

std::vector<BrutePair> BruteForceSimilarityJoin(const storage::Relation& left,
                                                const storage::Relation& right,
                                                const JoinSpec& spec) {
  std::vector<BrutePair> out;
  // Precompute right-side gram sets once.
  std::vector<text::GramSet> right_grams;
  right_grams.reserve(right.size());
  for (size_t j = 0; j < right.size(); ++j) {
    right_grams.push_back(
        text::GramSet::Of(right.StringAt(spec.right_column, j), spec.qgram));
  }
  for (size_t i = 0; i < left.size(); ++i) {
    const std::string_view lkey = left.StringAt(spec.left_column, i);
    const text::GramSet lgrams = text::GramSet::Of(lkey, spec.qgram);
    for (size_t j = 0; j < right.size(); ++j) {
      double sim;
      if (lgrams.empty() && right_grams[j].empty()) {
        // Mirror the engine's degenerate-probe rule: gram-less strings
        // match only by equality.
        sim = lkey == right.StringAt(spec.right_column, j) ? 1.0 : 0.0;
      } else {
        sim = text::SetSimilarity(spec.measure, lgrams, right_grams[j]);
      }
      if (sim >= spec.sim_threshold) {
        out.push_back(BrutePair{i, j, sim});
      }
    }
  }
  return out;
}

}  // namespace join
}  // namespace aqp
