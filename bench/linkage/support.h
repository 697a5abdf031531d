// Shared plumbing of the linkage benchmark: workload inputs, query
// specifications, the metric report, and small statistics helpers.

#ifndef AQP_BENCH_LINKAGE_SUPPORT_H_
#define AQP_BENCH_LINKAGE_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/generator.h"
#include "exec/interleave.h"
#include "exec/operator.h"
#include "service/query.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace aqp {
namespace linkbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \name Order statistics over samples (copies; callers keep order).
/// @{
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// @}

/// How a query matches: the paper's two pinned baselines and the
/// adaptive MAR loop between them.
enum class Strategy { kExact, kAdaptive, kApprox };
const char* StrategyName(Strategy strategy);

/// Per-query time budget of the serving mix.
enum class DeadlineKind { kNone, kHard, kSoft };
inline constexpr size_t kNumDeadlineKinds = 3;
const char* DeadlineKindName(DeadlineKind kind);

/// Thread budget of one workload: at most 4 busy threads, never taken
/// from hardware_concurrency.
struct ThreadBudget {
  size_t shards = 4;
  size_t worker_threads = 3;
  size_t max_concurrent_queries = 1;
  size_t max_total_shards = 4;
};

/// \brief Everything the program under test receives for one workload:
/// generated test cases and, for the CSV feed, their serialized text.
struct Inputs {
  /// Generated cases. The feed keeps its case's schemas and ground
  /// truth only; its rows live in the CSV text below.
  std::vector<datagen::TestCase> cases;
  /// Per case: serialized child (accidents) and parent (atlas) CSV.
  /// Empty unless the workload reads CSV.
  std::vector<std::string> child_csv;
  std::vector<std::string> parent_csv;
  storage::Schema child_schema;
  storage::Schema parent_schema;

  bool csv() const { return !child_csv.empty(); }
  /// Row counts come from the ground-truth vectors, which a CSV case
  /// keeps after dropping its rows.
  size_t child_rows(size_t c) const {
    return cases[c].child_true_parent.size();
  }
  size_t parent_rows(size_t c) const {
    return cases[c].parent_is_variant.size();
  }
};

/// `relation` as CSV text with a header row.
std::string RelationCsv(const storage::Relation& relation);

/// Generates one case; `keep_rows=false` serializes both tables to CSV
/// text and drops the row relations.
Status AddCase(const datagen::TestCaseOptions& options, bool keep_rows,
               Inputs* inputs);

/// Digest of everything the program under test receives (the generated
/// rows or CSV text): repeated set-ups of one seed must agree on it.
uint64_t InputDigest(const Inputs& inputs);

/// One query of a workload.
struct QuerySpec {
  size_t case_index = 0;
  Strategy strategy = Strategy::kAdaptive;
  DeadlineKind deadline = DeadlineKind::kNone;
  size_t shards = 4;
  /// Input schedule: the paper's strict alternation, or the reference
  /// (atlas) loaded before the feed streams.
  exec::InterleavePolicy interleave = exec::InterleavePolicy::kAlternate;
};

/// Service-level options of a spec (join options, deadline in steps).
service::QueryOptions MakeQueryOptions(const Inputs& inputs,
                                       const QuerySpec& spec);

/// Fresh, unopened children of a case: relation scans over the rows,
/// or CSV sources over the serialized text.
struct Children {
  std::unique_ptr<exec::Operator> left;
  std::unique_ptr<exec::Operator> right;
};
Children MakeChildren(const Inputs& inputs, size_t case_index);

/// Result pairs of one query in delivery order, packed as
/// (accident_id << 32) | municipality_id.
std::vector<uint64_t> PairKeys(const storage::Relation& result);
/// Order-sensitive digest of a pair sequence.
uint64_t Fingerprint(const std::vector<uint64_t>& pairs);

/// One query as the workload ran it.
struct QueryRun {
  QuerySpec spec;
  service::QueryStats stats;
  /// When the query was due (open loop: its scheduled time; closed
  /// loop: when the client sent it) and when it was seen terminal.
  Clock::time_point due;
  Clock::time_point done;
  /// Due to terminal.
  double latency_ms = 0.0;
  /// Due to submitted: open loop, the generator's lateness plus the
  /// Submit call; closed loop, the Submit call alone.
  double late_ms = 0.0;
  uint64_t fingerprint = 0;
  /// Distinct accidents matched, counted from the result rows.
  uint64_t matched_children = 0;
  bool passed = false;
};

/// \brief Metrics and outcome of one run, printed as a table on stderr
/// and as the single-line JSON result on stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; `ok == false` counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed check that is not tied to one query as one failed
  /// operation.
  void Fail(const std::string& what);
  /// Prints a failed check on stderr and returns `ok`.
  static bool Check(bool ok, const std::string& what);

  bool correct() const { return attempted_ > 0 && failed_ == 0; }

  void PrintTable(const std::string& title, FILE* out) const;
  std::string ResultJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace linkbench
}  // namespace aqp

#endif  // AQP_BENCH_LINKAGE_SUPPORT_H_
