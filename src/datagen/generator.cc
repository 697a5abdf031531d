#include "datagen/generator.h"

#include <unordered_set>

#include "common/macros.h"
#include "common/random.h"

namespace aqp {
namespace datagen {

namespace {

/// Copies a string column out of `table`: the datagen-local buffer the
/// perturbation edits in place.
std::vector<std::string> StringColumn(const storage::Relation& table,
                                      size_t col) {
  std::vector<std::string> strings;
  strings.reserve(table.size());
  for (size_t row = 0; row < table.size(); ++row) {
    strings.emplace_back(table.StringAt(col, row));
  }
  return strings;
}

/// Seals an edited buffer: `table` with string column `col` replaced
/// by `strings`.
storage::Relation Seal(const storage::Relation& table, size_t col,
                       const std::vector<std::string>& strings) {
  storage::Relation sealed(table.schema());
  size_t i = 0;
  for (const storage::ColumnBatch& batch : table.batches()) {
    for (size_t row = 0; row < batch.size(); ++row, ++i) {
      storage::ColumnBatch* out = sealed.TailForAppend();
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        if (c == col) {
          out->AppendString(c, strings[i]);
        } else {
          out->AppendCellFrom(batch, c, row);
        }
      }
      out->CommitRow();
    }
  }
  return sealed;
}

}  // namespace

std::string TestCaseOptions::Label() const {
  std::string label = PerturbationPatternName(pattern);
  label += perturb_parent ? "/both" : "/child";
  return label;
}

size_t TestCase::CleanPairCount() const {
  size_t clean = 0;
  for (size_t i = 0; i < child_true_parent.size(); ++i) {
    if (child_is_variant[i]) continue;
    if (parent_is_variant[child_true_parent[i]]) continue;
    ++clean;
  }
  return clean;
}

size_t TestCase::ChildVariantCount() const {
  size_t count = 0;
  for (uint8_t v : child_is_variant) count += v;
  return count;
}

size_t TestCase::ParentVariantCount() const {
  size_t count = 0;
  for (uint8_t v : parent_is_variant) count += v;
  return count;
}

Result<TestCase> GenerateTestCase(const TestCaseOptions& options) {
  TestCase tc;
  tc.options = options;

  // Derive independent deterministic sub-seeds from the master seed.
  Rng master(options.seed);
  AtlasOptions atlas_options = options.atlas;
  atlas_options.seed = master.engine()();
  AccidentsOptions accidents_options = options.accidents;
  accidents_options.seed = master.engine()();
  Rng parent_perturb_rng(master.engine()());
  Rng child_perturb_rng(master.engine()());

  // 1. Clean tables.
  AQP_ASSIGN_OR_RETURN(tc.parent, GenerateAtlas(atlas_options));
  AccidentsData accidents;
  AQP_ASSIGN_OR_RETURN(
      accidents,
      GenerateAccidents(tc.parent, kAtlasLocationColumn, accidents_options));
  tc.child = std::move(accidents.table);
  tc.child_true_parent = std::move(accidents.true_parent_row);
  tc.child_is_variant.assign(tc.child.size(), 0);
  tc.parent_is_variant.assign(tc.parent.size(), 0);

  // Perturbation edits datagen-local copies of the location columns,
  // sealed back into the tables at the end.
  std::vector<std::string> parent_locations =
      StringColumn(tc.parent, kAtlasLocationColumn);

  // 2. Perturb the parent (only for the "/both" cases).
  AQP_ASSIGN_OR_RETURN(
      tc.parent_pattern,
      MakePattern(options.pattern, tc.parent.size(),
                  options.perturb_parent ? options.variant_rate : 0.0));
  if (options.perturb_parent) {
    // The canonical location set; no variant may ever equal a member,
    // otherwise exact matches would silently reappear.
    std::unordered_set<std::string> forbidden;
    forbidden.reserve(parent_locations.size() * 2);
    forbidden.insert(parent_locations.begin(), parent_locations.end());
    const std::vector<size_t> rows = SampleVariantPositions(
        tc.parent_pattern, options.variant_rate, &parent_perturb_rng);
    for (size_t row : rows) {
      std::string variant;
      AQP_ASSIGN_OR_RETURN(
          variant,
          MakeNonCollidingVariant(parent_locations[row], forbidden,
                                  options.variant, &parent_perturb_rng));
      forbidden.insert(variant);
      parent_locations[row] = std::move(variant);
      tc.parent_is_variant[row] = 1;
    }
    tc.parent = Seal(tc.parent, kAtlasLocationColumn, parent_locations);
  }

  // 3. Perturb the child. Forbidden set: every *final* parent string
  // (canonical or parent-variant), so a child variant can never match
  // any parent exactly.
  AQP_ASSIGN_OR_RETURN(tc.child_pattern,
                       MakePattern(options.pattern, tc.child.size(),
                                   options.variant_rate));
  {
    std::unordered_set<std::string> forbidden;
    forbidden.reserve(parent_locations.size() * 2);
    forbidden.insert(parent_locations.begin(), parent_locations.end());
    const std::vector<size_t> rows = SampleVariantPositions(
        tc.child_pattern, options.variant_rate, &child_perturb_rng);
    if (!rows.empty()) {
      std::vector<std::string> child_locations =
          StringColumn(tc.child, kAccidentsLocationColumn);
      for (size_t row : rows) {
        std::string variant;
        AQP_ASSIGN_OR_RETURN(
            variant,
            MakeNonCollidingVariant(child_locations[row], forbidden,
                                    options.variant, &child_perturb_rng));
        child_locations[row] = std::move(variant);
        tc.child_is_variant[row] = 1;
      }
      tc.child = Seal(tc.child, kAccidentsLocationColumn, child_locations);
    }
  }
  return tc;
}

std::vector<TestCaseOptions> PaperTestMatrix(const TestCaseOptions& base) {
  std::vector<TestCaseOptions> cases;
  for (PerturbationPattern pattern : kAllPatterns) {
    for (bool both : {false, true}) {
      TestCaseOptions options = base;
      options.pattern = pattern;
      options.perturb_parent = both;
      cases.push_back(options);
    }
  }
  return cases;
}

}  // namespace datagen
}  // namespace aqp
