#include "bench/linkage/support.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "common/hash.h"
#include "common/macros.h"
#include "datagen/accidents.h"
#include "datagen/atlas.h"
#include "exec/csv_io.h"
#include "exec/scan.h"
#include "storage/relation_io.h"

namespace aqp {
namespace linkbench {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // nearest rank
  return values[std::min(index, values.size() - 1)];
}

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kExact:
      return "exact";
    case Strategy::kAdaptive:
      return "adaptive";
    case Strategy::kApprox:
      return "approx";
  }
  return "?";
}

const char* DeadlineKindName(DeadlineKind kind) {
  switch (kind) {
    case DeadlineKind::kNone:
      return "none";
    case DeadlineKind::kHard:
      return "hard";
    case DeadlineKind::kSoft:
      return "soft";
  }
  return "?";
}

namespace {

uint64_t RelationDigest(const storage::Relation& relation, uint64_t seed) {
  uint64_t h = seed;
  for (const storage::Tuple& row : relation.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      const storage::Value& v = row.at(i);
      switch (relation.schema().field(i).type) {
        case storage::ValueType::kString:
          h = HashCombine(h, Fnv1a64(v.AsStringView()));
          break;
        case storage::ValueType::kInt64:
          h = HashCombine(h, static_cast<uint64_t>(v.AsInt64()));
          break;
        case storage::ValueType::kDouble: {
          const double d = v.AsDouble();
          uint64_t bits = 0;
          std::memcpy(&bits, &d, sizeof(bits));
          h = HashCombine(h, bits);
          break;
        }
        default:
          break;
      }
    }
  }
  return h;
}

}  // namespace

std::string RelationCsv(const storage::Relation& relation) {
  std::ostringstream out;
  storage::WriteRelationCsv(relation, &out);
  return out.str();
}

Status AddCase(const datagen::TestCaseOptions& options, bool keep_rows,
               Inputs* inputs) {
  datagen::TestCase tc;
  AQP_ASSIGN_OR_RETURN(tc, datagen::GenerateTestCase(options));
  inputs->child_schema = tc.child.schema();
  inputs->parent_schema = tc.parent.schema();
  if (!keep_rows) {
    inputs->child_csv.push_back(RelationCsv(tc.child));
    inputs->parent_csv.push_back(RelationCsv(tc.parent));
    tc.child = storage::Relation(tc.child.schema());
    tc.parent = storage::Relation(tc.parent.schema());
  }
  inputs->cases.push_back(std::move(tc));
  return Status::OK();
}

uint64_t InputDigest(const Inputs& inputs) {
  uint64_t h = 0;
  for (const datagen::TestCase& tc : inputs.cases) {
    h = RelationDigest(tc.child, h);
    h = RelationDigest(tc.parent, h);
  }
  for (const std::string& text : inputs.child_csv) {
    h = HashCombine(h, Fnv1a64(text));
  }
  for (const std::string& text : inputs.parent_csv) {
    h = HashCombine(h, Fnv1a64(text));
  }
  return h;
}

service::QueryOptions MakeQueryOptions(const Inputs& inputs,
                                       const QuerySpec& spec) {
  const size_t children = inputs.child_rows(spec.case_index);
  const size_t parents = inputs.parent_rows(spec.case_index);
  service::QueryOptions query;
  exec::parallel::ParallelJoinOptions& join = query.join;
  join.base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  join.base.join.spec.right_column = datagen::kAtlasLocationColumn;
  join.base.join.spec.sim_threshold = 0.85;
  join.base.join.spec.qgram.q = 3;
  join.base.join.interleave = spec.interleave;
  join.base.join.left_size_hint = children;
  join.base.join.right_size_hint = parents;
  join.base.adaptive.delta_adapt = 100;
  join.base.adaptive.window = 100;
  join.base.adaptive.theta_out = 0.05;
  join.base.adaptive.parent_side = exec::Side::kRight;
  join.base.adaptive.parent_table_size = parents;
  if (spec.strategy != Strategy::kAdaptive) {
    join.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    join.base.adaptive.initial_state = spec.strategy == Strategy::kExact
                                           ? adaptive::ProcessorState::kLexRex
                                           : adaptive::ProcessorState::kLapRap;
  }
  join.num_shards = spec.shards;
  const uint64_t steps = children + parents;
  if (spec.deadline == DeadlineKind::kHard) {
    query.deadline.hard_deadline_steps = steps / 2;
  } else if (spec.deadline == DeadlineKind::kSoft) {
    query.deadline.soft_deadline_steps = steps / 4;
  }
  return query;
}

Children MakeChildren(const Inputs& inputs, size_t case_index) {
  Children children;
  if (inputs.csv()) {
    children.left = std::make_unique<exec::CsvSource>(
        inputs.child_schema, inputs.child_csv[case_index]);
    children.right = std::make_unique<exec::CsvSource>(
        inputs.parent_schema, inputs.parent_csv[case_index]);
  } else {
    children.left =
        std::make_unique<exec::RelationScan>(&inputs.cases[case_index].child);
    children.right =
        std::make_unique<exec::RelationScan>(&inputs.cases[case_index].parent);
  }
  return children;
}

std::vector<uint64_t> PairKeys(const storage::Relation& result) {
  std::vector<uint64_t> keys;
  const auto child_col = result.schema().IndexOf("accident_id");
  const auto parent_col = result.schema().IndexOf("municipality_id");
  if (!child_col.has_value() || !parent_col.has_value()) return keys;
  keys.reserve(result.size());
  for (const storage::Tuple& row : result.rows()) {
    const auto child = static_cast<uint64_t>(row.at(*child_col).AsInt64());
    const auto parent = static_cast<uint64_t>(row.at(*parent_col).AsInt64());
    keys.push_back(child << 32 | parent);
  }
  return keys;
}

uint64_t Fingerprint(const std::vector<uint64_t>& pairs) {
  uint64_t h = Mix64(pairs.size());
  for (uint64_t key : pairs) h = HashCombine(h, Mix64(key));
  return h;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& what) {
  Check(false, what);
  ++attempted_;
  ++failed_;
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  return ok;
}

void Report::PrintTable(const std::string& title, FILE* out) const {
  std::fprintf(out, "\n== %s: %s (%llu/%llu operations failed)\n",
               title.c_str(), correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(attempted_));
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

std::string Report::ResultJson() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace linkbench
}  // namespace aqp
