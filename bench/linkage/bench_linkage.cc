// The linkage benchmark: runs one workload through the public
// LinkageService API, checks every output against an independent
// oracle, and prints every metric by name and unit (a table on stderr,
// one JSON line on stdout). A --trace run of the same workload reports
// the per-layer numbers instead, measured by timing calls into each
// layer from this benchmark's own files.
//
//   bench_linkage --workload=paper_matrix --seed=7 --seconds=20
//   bench_linkage --workload=feed_csv --trace --trace-out=feed.json
//   bench_linkage --smoke
//
// Workloads (bench/linkage/README.md says why each was chosen):
//   paper_matrix  the eight §4.1 cases at paper scale, each as all-exact,
//                 adaptive and all-approximate queries; closed loop.
//   feed_csv      a clean 250k-row accidents feed parsed from CSV text;
//                 closed loop, one query at a time.
//   serve_open    small adaptive queries with a deadline mix, submitted
//                 on a seeded Poisson schedule; open loop.
//
// Every thread count is fixed here, never taken from the hardware, with
// at most four busy threads per workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/linkage/oracle.h"
#include "bench/linkage/replay.h"
#include "bench/linkage/spans.h"
#include "bench/linkage/support.h"
#include "common/flags.h"
#include "common/macros.h"
#include "common/random.h"
#include "exec/parallel/thread_pool.h"
#include "metrics/gain_cost.h"
#include "service/linkage_service.h"

namespace aqp {
namespace linkbench {
namespace {

constexpr uint64_t kDefaultSeed = 20090324;
constexpr double kSimThreshold = 0.85;
constexpr int kQGram = 3;
/// Open-loop arrival rate, about 40% of the serving capacity.
constexpr double kServeRatePerSecond = 15.0;
/// An open-loop run whose generator ran later than this at p99 measured
/// its own scheduling, not the service.
constexpr double kMaxLateMsP99 = 20.0;

struct RunConfig {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

ThreadBudget WideBudget() {
  // One query at a time on 4 shards: the runner thread plus 3 workers.
  ThreadBudget threads;
  threads.shards = 4;
  threads.worker_threads = 3;
  threads.max_concurrent_queries = 1;
  threads.max_total_shards = 4;
  return threads;
}

ThreadBudget ServeBudget() {
  // Up to 3 one-shard queries at once: 3 runners plus 1 worker.
  ThreadBudget threads;
  threads.shards = 1;
  threads.worker_threads = 1;
  threads.max_concurrent_queries = 3;
  threads.max_total_shards = 3;
  return threads;
}

service::ServiceOptions ServiceOptionsFor(const ThreadBudget& threads) {
  service::ServiceOptions options;
  options.worker_threads = threads.worker_threads;
  options.admission.max_concurrent_queries = threads.max_concurrent_queries;
  options.admission.max_total_shards = threads.max_total_shards;
  return options;
}

/// What a workload's service run leaves for the report and the traced
/// run.
struct WorkloadRun {
  ThreadBudget threads;
  Inputs inputs;
  /// The feed's CSV sources, built at set-up and re-opened per query.
  Children feed_children;
  std::unique_ptr<service::LinkageService> service;
  double setup_s = 0.0;
  /// Every measured query, in submission order.
  std::vector<QueryRun> queries;
  /// Indices into `queries` that the traced run replays.
  std::vector<size_t> traced;
  size_t backlog_max = 1;
  /// End-to-end summary.
  double query_ms_p50 = 0.0;
  double rows_per_s = 0.0;
  double completeness = 0.0;
  double peak_mem_mb = 0.0;
};

/// Set-ups per run: the median of five damps the cold first one and
/// host noise on sub-second set-ups.
int SetUpRepetitions(const RunConfig& config) { return config.smoke ? 1 : 5; }

/// Sets the workload up `repetitions` times — input generation, CSV
/// serialization, service construction — keeping the last. Reports the
/// median set-up time, and fails the run when one seed produced
/// different inputs.
Status SetUp(const std::function<Status(Inputs*)>& generate, int repetitions,
             WorkloadRun* run, Report* report) {
  std::vector<double> seconds;
  uint64_t digest = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    // Release the previous repetition before timing the next.
    run->service.reset();
    run->feed_children = Children();
    run->inputs = Inputs();
    const Clock::time_point start = Clock::now();
    Inputs inputs;
    AQP_RETURN_IF_ERROR(generate(&inputs));
    Children feed;
    if (inputs.csv()) feed = MakeChildren(inputs, 0);
    auto service = std::make_unique<service::LinkageService>(
        ServiceOptionsFor(run->threads));
    seconds.push_back(MsBetween(start, Clock::now()) / 1e3);
    const uint64_t this_digest = InputDigest(inputs);
    if (rep > 0 && this_digest != digest) {
      report->Fail("set-up produced different inputs for one seed");
    }
    digest = this_digest;
    run->inputs = std::move(inputs);
    run->feed_children = std::move(feed);
    run->service = std::move(service);
  }
  run->setup_s = Median(seconds);
  return Status::OK();
}

/// Fills the result-derived fields of `run` and applies the checks every
/// query gets: it finished `done`, its result has pairs_emitted rows,
/// and its distinct matched accidents equal the engine's count.
bool CheckResult(const Result<storage::Relation>& result, QueryRun* run,
                 std::vector<uint64_t>* pairs) {
  const std::string label = std::string(StrategyName(run->spec.strategy)) +
                            " query on case " +
                            std::to_string(run->spec.case_index);
  if (!Report::Check(run->stats.state == service::QueryState::kDone,
                     label + " ended " +
                         service::QueryStateName(run->stats.state) + ": " +
                         run->stats.status.ToString())) {
    return false;
  }
  if (!Report::Check(result.ok(), label + " has no result")) return false;
  *pairs = PairKeys(*result);
  run->fingerprint = Fingerprint(*pairs);
  run->matched_children = DistinctChildren(*pairs);
  bool ok = Report::Check(pairs->size() == run->stats.pairs_emitted,
                          label + ": result rows != pairs_emitted");
  ok &= Report::Check(
      run->matched_children == run->stats.completeness.observed_matches,
      label + ": distinct matched accidents != engine count");
  return ok;
}

/// Closed loop: submits one query, waits for it, takes its result.
QueryRun RunClosedQuery(service::LinkageService* service,
                        const Inputs& inputs, const QuerySpec& spec,
                        const Children& children, storage::Relation* result,
                        std::vector<uint64_t>* pairs) {
  QueryRun run;
  run.spec = spec;
  const service::QueryOptions options = MakeQueryOptions(inputs, spec);
  run.due = Clock::now();
  Result<service::QueryId> id =
      service->Submit(children.left.get(), children.right.get(), options);
  run.late_ms = MsBetween(run.due, Clock::now());
  if (!Report::Check(id.ok(), "submit failed: " + id.status().ToString())) {
    return run;
  }
  Result<service::QueryStats> stats = service->Wait(*id);
  run.done = Clock::now();
  run.latency_ms = MsBetween(run.due, run.done);
  if (!Report::Check(stats.ok(), "wait failed")) return run;
  run.stats = *stats;
  Result<storage::Relation> taken = service->TakeResult(*id);
  run.passed = CheckResult(taken, &run, pairs);
  if (taken.ok()) *result = std::move(*taken);
  return run;
}

double PeakMemMb(const std::vector<QueryRun>& queries) {
  uint64_t peak = 0;
  for (const QueryRun& q : queries) {
    peak = std::max(peak, q.stats.peak_memory_bytes);
  }
  return static_cast<double>(peak) / 1e6;
}

double AdaptiveCompleteness(const WorkloadRun& run) {
  std::vector<double> values;
  for (const QueryRun& q : run.queries) {
    if (q.spec.strategy != Strategy::kAdaptive) continue;
    values.push_back(static_cast<double>(q.matched_children) /
                     static_cast<double>(run.inputs.child_rows(
                         q.spec.case_index)));
  }
  return Mean(values);
}

// ------------------------------------------------------------ paper_matrix

Status RunPaperMatrix(const RunConfig& config, WorkloadRun* run,
                      Report* report) {
  run->threads = WideBudget();
  datagen::TestCaseOptions base;
  base.atlas.size = config.smoke ? 500 : 8082;
  base.accidents.size = config.smoke ? 1000 : 10000;
  base.variant_rate = 0.10;
  base.seed = config.seed;
  AQP_RETURN_IF_ERROR(SetUp(
      [&base](Inputs* inputs) {
        for (const datagen::TestCaseOptions& options :
             datagen::PaperTestMatrix(base)) {
          AQP_RETURN_IF_ERROR(AddCase(options, /*keep_rows=*/true, inputs));
        }
        return Status::OK();
      },
      SetUpRepetitions(config), run, report));
  const Inputs& inputs = run->inputs;
  std::vector<uint64_t> exact_pairs;
  for (const datagen::TestCase& tc : inputs.cases) {
    exact_pairs.push_back(HashJoinPairCount(tc));
  }

  std::vector<double> round_rows_per_s;
  std::vector<double> round_adaptive_s;
  std::vector<double> round_efficiency;
  std::vector<double> adaptive_latency_ms;
  const Clock::time_point start = Clock::now();
  double last_round_s = 0.0;
  for (size_t round = 0;; ++round) {
    const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
    if (round > 0 && (config.trace || config.smoke ||
                      elapsed_s + last_round_s > config.seconds)) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    double steps = 0.0;
    double latency_s = 0.0;
    double adaptive_s = 0.0;
    double log_efficiency = 0.0;
    for (size_t c = 0; c < inputs.cases.size(); ++c) {
      // Alternate the strategy order so host drift favours none.
      const std::vector<Strategy> order =
          c % 2 == 0 ? std::vector<Strategy>{Strategy::kExact,
                                             Strategy::kAdaptive,
                                             Strategy::kApprox}
                     : std::vector<Strategy>{Strategy::kApprox,
                                             Strategy::kAdaptive,
                                             Strategy::kExact};
      QueryRun runs[3];
      storage::Relation results[3];
      std::vector<uint64_t> pairs[3];
      for (Strategy strategy : order) {
        const size_t s = static_cast<size_t>(strategy);
        QuerySpec spec;
        spec.case_index = c;
        spec.strategy = strategy;
        spec.shards = run->threads.shards;
        const Children children = MakeChildren(inputs, c);
        runs[s] = RunClosedQuery(run->service.get(), inputs, spec, children,
                                 &results[s], &pairs[s]);
      }
      const size_t ex = static_cast<size_t>(Strategy::kExact);
      const size_t ad = static_cast<size_t>(Strategy::kAdaptive);
      const size_t ap = static_cast<size_t>(Strategy::kApprox);
      const std::string label = inputs.cases[c].options.Label();
      bool case_ok = Report::Check(
          pairs[ex].size() == exact_pairs[c],
          label + ": all-exact pairs != independent hash-join count");
      case_ok &= Report::Check(PairSetIncluded(pairs[ex], pairs[ad]) &&
                                   PairSetIncluded(pairs[ad], pairs[ap]),
                               label + ": pair sets do not nest");
      case_ok &= Report::Check(
          PairsMeetThreshold(results[ap], kSimThreshold, kQGram) &&
              PairsMeetThreshold(results[ad], kSimThreshold, kQGram),
          label + ": a pair is below the similarity threshold");

      metrics::GainCost gc;
      gc.r = static_cast<double>(runs[ex].stats.pairs_emitted);
      gc.R = static_cast<double>(runs[ap].stats.pairs_emitted);
      gc.r_abs = static_cast<double>(runs[ad].stats.pairs_emitted);
      gc.c = runs[ex].latency_ms;
      gc.C = runs[ap].latency_ms;
      gc.c_abs = runs[ad].latency_ms;
      const double efficiency = gc.RelativeGain() / gc.RelativeCostGap();
      log_efficiency += std::log(std::max(efficiency, 1e-9));
      if (round == 0) {
        std::fprintf(stderr,
                     "  %-22s pairs ex/ad/ap %6llu %6llu %6llu  ms %8.1f "
                     "%8.1f %8.1f  gain %.3f cost %.3f eff %.3f\n",
                     label.c_str(), static_cast<unsigned long long>(gc.r),
                     static_cast<unsigned long long>(gc.r_abs),
                     static_cast<unsigned long long>(gc.R), gc.c, gc.c_abs,
                     gc.C, gc.RelativeGain(), gc.RelativeCostGap(),
                     efficiency);
      }
      adaptive_s += runs[ad].latency_ms / 1e3;
      adaptive_latency_ms.push_back(runs[ad].latency_ms);
      for (Strategy strategy : order) {
        QueryRun& q = runs[static_cast<size_t>(strategy)];
        q.passed = q.passed && case_ok;
        report->Attempt(q.passed);
        steps += static_cast<double>(q.stats.steps);
        latency_s += q.latency_ms / 1e3;
        run->queries.push_back(q);
      }
    }
    round_rows_per_s.push_back(steps / latency_s);
    round_adaptive_s.push_back(adaptive_s);
    round_efficiency.push_back(
        std::exp(log_efficiency / static_cast<double>(inputs.cases.size())));
    last_round_s = MsBetween(round_start, Clock::now()) / 1e3;
  }
  for (size_t i = 0; i < 3 * inputs.cases.size(); ++i) run->traced.push_back(i);

  run->query_ms_p50 = Median(adaptive_latency_ms);
  run->rows_per_s = Median(round_rows_per_s);
  run->completeness = AdaptiveCompleteness(*run);
  run->peak_mem_mb = PeakMemMb(run->queries);
  std::fprintf(stderr,
               "  rounds %zu  adaptive_s %.4f (median)  efficiency_wall %.4f "
               "(median of per-round geometric means over %zu cases)\n",
               round_adaptive_s.size(), Median(round_adaptive_s),
               Median(round_efficiency), inputs.cases.size());
  return Status::OK();
}

// ---------------------------------------------------------------- feed_csv

Status RunFeedCsv(const RunConfig& config, WorkloadRun* run, Report* report) {
  run->threads = WideBudget();
  datagen::TestCaseOptions options;
  options.atlas.size = config.smoke ? 2000 : 8082;
  options.accidents.size = config.smoke ? 20000 : 250000;
  options.variant_rate = 0.0;
  options.seed = config.seed;
  AQP_RETURN_IF_ERROR(SetUp(
      [&options](Inputs* inputs) {
        return AddCase(options, /*keep_rows=*/false, inputs);
      },
      SetUpRepetitions(config), run, report));

  QuerySpec spec;
  spec.shards = run->threads.shards;
  // The reference atlas loads before the feed streams. Under strict
  // alternation the binomial test raises false alarms on clean input
  // for some seeds (12 transitions, 2.5x the time), which would make
  // the workload bimodal; with the parent exhausted first every child
  // matches as it arrives and the MAR loop never leaves lex/rex.
  spec.interleave = exec::InterleavePolicy::kRightFirst;
  const size_t min_queries = config.trace || config.smoke ? 3 : 5;
  const Clock::time_point start = Clock::now();
  std::vector<double> latency_ms;
  // The first query warms caches and allocators; it is checked but not
  // timed.
  for (size_t i = 0;; ++i) {
    const bool warm_up = i == 0;
    const size_t timed = warm_up ? 0 : i - 1;
    if (!warm_up && timed >= min_queries &&
        (config.trace || config.smoke ||
         MsBetween(start, Clock::now()) / 1e3 >= config.seconds)) {
      break;
    }
    storage::Relation result;
    std::vector<uint64_t> pairs;
    QueryRun q = RunClosedQuery(run->service.get(), run->inputs, spec,
                                run->feed_children, &result, &pairs);
    q.passed = q.passed &&
               Report::Check(EachChildMatchesItsParent(
                                 pairs, run->inputs.cases[0].child_true_parent),
                             "feed: an accident is not matched exactly once "
                             "to its true parent");
    report->Attempt(q.passed);
    if (warm_up) continue;
    latency_ms.push_back(q.latency_ms);
    run->queries.push_back(q);
  }
  for (size_t i = 0; i < 3 && i < run->queries.size(); ++i) {
    run->traced.push_back(i);
  }
  run->query_ms_p50 = Median(latency_ms);
  run->rows_per_s = static_cast<double>(run->queries.front().stats.steps) /
                    (run->query_ms_p50 / 1e3);
  run->completeness = AdaptiveCompleteness(*run);
  run->peak_mem_mb = PeakMemMb(run->queries);
  std::fprintf(stderr, "  timed queries %zu  latency ms p50 %.3f max %.3f\n",
               latency_ms.size(), run->query_ms_p50,
               *std::max_element(latency_ms.begin(), latency_ms.end()));
  return Status::OK();
}

// -------------------------------------------------------------- serve_open

struct Arrival {
  double due_s = 0.0;
  QuerySpec spec;
};

/// Seeded Poisson arrivals over `seconds`, each an adaptive 1-shard
/// query. Cases are uniform and the deadline mix is 50% none, 25% hard
/// (half the case's steps), 25% soft (a quarter), drawn as shuffled
/// blocks that hold every (case, deadline) in those proportions: the
/// seed orders the mix but does not change it, so completeness and
/// work per query do not drift with the sampling.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double seconds,
                                     size_t cases, size_t shards) {
  Rng rng(seed ^ 0x5e7e0fe7ULL);
  std::vector<QuerySpec> block;
  for (size_t c = 0; c < cases; ++c) {
    for (DeadlineKind kind : {DeadlineKind::kNone, DeadlineKind::kNone,
                              DeadlineKind::kHard, DeadlineKind::kSoft}) {
      QuerySpec spec;
      spec.case_index = c;
      spec.deadline = kind;
      spec.shards = shards;
      block.push_back(spec);
    }
  }
  std::vector<Arrival> schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / kServeRatePerSecond;
    if (t >= seconds) break;
    if (schedule.size() % block.size() == 0) rng.Shuffle(&block);
    Arrival a;
    a.due_s = t;
    a.spec = block[schedule.size() % block.size()];
    schedule.push_back(a);
  }
  return schedule;
}

size_t ComboIndex(const QuerySpec& spec) {
  return spec.case_index * kNumDeadlineKinds +
         static_cast<size_t>(spec.deadline);
}

Status RunServeOpen(const RunConfig& config, WorkloadRun* run,
                    Report* report) {
  run->threads = ServeBudget();
  datagen::TestCaseOptions base;
  base.atlas.size = 1000;
  base.accidents.size = 2000;
  base.variant_rate = 0.10;
  base.seed = config.seed;
  AQP_RETURN_IF_ERROR(SetUp(
      [&base](Inputs* inputs) {
        for (const datagen::TestCaseOptions& options :
             datagen::PaperTestMatrix(base)) {
          AQP_RETURN_IF_ERROR(AddCase(options, /*keep_rows=*/true, inputs));
        }
        return Status::OK();
      },
      SetUpRepetitions(config), run, report));
  const Inputs& inputs = run->inputs;
  const std::vector<Arrival> schedule =
      PoissonSchedule(config.seed, config.smoke ? 3.0 : config.seconds,
                      inputs.cases.size(), run->threads.shards);

  struct Pending {
    size_t index = 0;
    service::QueryId id = 0;
    Children children;
  };
  std::vector<QueryRun> runs(schedule.size());
  std::vector<Pending> outstanding;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].due_s));
  };
  while (next < schedule.size() || !outstanding.empty()) {
    while (next < schedule.size() && due_at(next) <= Clock::now()) {
      QueryRun& q = runs[next];
      q.spec = schedule[next].spec;
      q.due = due_at(next);
      Pending pending;
      pending.index = next;
      pending.children = MakeChildren(inputs, q.spec.case_index);
      Result<service::QueryId> id = run->service->Submit(
          pending.children.left.get(), pending.children.right.get(),
          MakeQueryOptions(inputs, q.spec));
      q.late_ms = MsBetween(q.due, Clock::now());
      ++next;
      if (!Report::Check(id.ok(), "submit failed: " + id.status().ToString())) {
        continue;
      }
      pending.id = *id;
      outstanding.push_back(std::move(pending));
    }
    run->backlog_max = std::max(run->backlog_max, outstanding.size());
    // Completion stamps: poll only the outstanding queries.
    for (size_t i = 0; i < outstanding.size();) {
      Result<service::QueryState> state =
          run->service->state(outstanding[i].id);
      if (state.ok() && !service::IsTerminalState(*state)) {
        ++i;
        continue;
      }
      QueryRun& q = runs[outstanding[i].index];
      q.done = Clock::now();
      q.latency_ms = MsBetween(q.due, q.done);
      Result<service::QueryStats> stats = run->service->Wait(outstanding[i].id);
      if (stats.ok()) q.stats = *stats;
      std::vector<uint64_t> pairs;
      q.passed = stats.ok() &&
                 CheckResult(run->service->TakeResult(outstanding[i].id), &q,
                             &pairs);
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
    Clock::time_point wake = Clock::now() + std::chrono::milliseconds(1);
    if (next < schedule.size()) wake = std::min(wake, due_at(next));
    std::this_thread::sleep_until(wake);
  }

  // Oracle: each (case, deadline kind) run alone through a fresh service
  // must produce the byte-identical pair sequence.
  service::LinkageService solo_service(ServiceOptionsFor(run->threads));
  std::map<size_t, uint64_t> solo_fingerprint;
  for (const QueryRun& q : runs) {
    const size_t combo = ComboIndex(q.spec);
    if (solo_fingerprint.count(combo) != 0) continue;
    storage::Relation result;
    std::vector<uint64_t> pairs;
    const Children children = MakeChildren(inputs, q.spec.case_index);
    const QueryRun solo = RunClosedQuery(&solo_service, inputs, q.spec,
                                         children, &result, &pairs);
    report->Attempt(solo.passed);
    solo_fingerprint[combo] = solo.fingerprint;
    run->traced.push_back(static_cast<size_t>(&q - runs.data()));
  }
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double steps = 0.0;
  double latency_s = 0.0;
  for (QueryRun& q : runs) {
    const bool same_as_solo =
        q.fingerprint == solo_fingerprint[ComboIndex(q.spec)];
    q.passed = q.passed && Report::Check(same_as_solo,
                                         "served pairs differ from the solo "
                                         "run of the same case and deadline");
    report->Attempt(q.passed);
    latency_ms.push_back(q.latency_ms);
    late_ms.push_back(q.late_ms);
    steps += static_cast<double>(q.stats.steps);
    latency_s += q.latency_ms / 1e3;
  }
  run->queries = std::move(runs);
  const double late_p99 = Quantile(late_ms, 0.99);
  if (late_p99 > kMaxLateMsP99) {
    report->Fail("load generator ran " + std::to_string(late_p99) +
                 " ms late at p99; the run measured the generator");
  }
  run->query_ms_p50 = Median(latency_ms);
  run->rows_per_s = steps / latency_s;
  run->completeness = AdaptiveCompleteness(*run);
  run->peak_mem_mb = PeakMemMb(run->queries);
  std::fprintf(stderr,
               "  queries %zu at %.0f/s  latency ms p50 %.3f p95 %.3f  "
               "late ms p99 %.3f  backlog max %zu\n",
               latency_ms.size(), kServeRatePerSecond, run->query_ms_p50,
               Quantile(latency_ms, 0.95), late_p99, run->backlog_max);
  return Status::OK();
}

Status RunWorkload(const RunConfig& config, WorkloadRun* run,
                   Report* report) {
  if (config.workload == "paper_matrix") {
    return RunPaperMatrix(config, run, report);
  }
  if (config.workload == "feed_csv") return RunFeedCsv(config, run, report);
  if (config.workload == "serve_open") {
    return RunServeOpen(config, run, report);
  }
  return Status::InvalidArgument("unknown workload '" + config.workload +
                                 "' (paper_matrix, feed_csv, serve_open)");
}

void ReportEndToEnd(const WorkloadRun& run, Report* report) {
  report->Add("setup_s", run.setup_s, "s");
  report->Add("query_ms_p50", run.query_ms_p50, "ms");
  report->Add("rows_per_s", run.rows_per_s, "rows/s");
  report->Add("completeness", run.completeness, "fraction");
  report->Add("peak_mem_mb", run.peak_mem_mb, "MB");
}

// ------------------------------------------------------------- traced run

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// max ÷ mean of per-shard busy times (1 = perfectly even; 0 when the
/// phase never ran).
double Skew(const std::vector<int64_t>& busy_ns) {
  if (busy_ns.empty()) return 0.0;
  const int64_t max = *std::max_element(busy_ns.begin(), busy_ns.end());
  double sum = 0.0;
  for (int64_t ns : busy_ns) sum += static_cast<double>(ns);
  return Ratio(static_cast<double>(max),
               sum / static_cast<double>(busy_ns.size()));
}

Status TraceWorkload(const RunConfig& config, const WorkloadRun& run,
                     Report* report) {
  SpanRecorder spans;
  exec::parallel::ThreadPool pool(run.threads.worker_threads);
  const Inputs& inputs = run.inputs;
  const double k = static_cast<double>(run.traced.size());

  struct Sums {
    double engine_ms = 0, critical_route_ms = 0, materialize_ms = 0;
    double refs = 0, epochs = 0;
    double route_ms = 0, phase_a_ms = 0, phase_a_busy_ms = 0, phase_a_skew = 0;
    double phase_b_ms = 0, phase_b_skew = 0, phase_b_queries = 0;
    double catchup_ms = 0;
    double catchup_tuples = 0, trace_catchup_tuples = 0, transitions = 0;
    double steps = 0, approx_steps = 0, overhead_ms = 0;
    double stall_ms = 0, overlap_route_ms = 0, epochs_staged = 0;
    double parse_ms = 0, parse_bytes = 0;
    join::ApproxProbeStats probes;
  } sums;
  // Service spans, one track per query: the service run is not
  // replayed, so its spans are the measured due-to-terminal intervals.
  for (size_t i = 0; i < run.queries.size(); ++i) {
    spans.Add("service.query", run.queries[i].due, run.queries[i].done,
              kNoParent, i + 1, static_cast<int>(1000 + i));
  }
  std::map<size_t, CsvParseResult> parse_by_case;
  for (size_t t = 0; t < run.traced.size(); ++t) {
    const QueryRun& q = run.queries[run.traced[t]];
    const uint64_t id = run.traced[t] + 1;
    const std::string label = std::string(StrategyName(q.spec.strategy)) +
                              "/" + DeadlineKindName(q.spec.deadline) +
                              " query on case " +
                              std::to_string(q.spec.case_index);
    ScopedSpan root(&spans, "trace.query", kNoParent, id);
    AQP_ASSIGN_OR_RETURN(
        const DriveResult drive,
        DriveQuery(inputs, q.spec, &spans, root.index(), id));
    AQP_ASSIGN_OR_RETURN(
        const ReplayResult replay,
        ReplayQuery(inputs, q.spec, drive.transitions, q.stats.steps, &pool,
                    &spans, root.index(), id));
    bool ok = Report::Check(
        drive.pairs == q.stats.pairs_emitted && drive.steps == q.stats.steps,
        label + ": direct drive differs from the served run");
    ok &= Report::Check(replay.pairs == q.stats.pairs_emitted,
                        label + ": replay pairs " +
                            std::to_string(replay.pairs) +
                            " != pairs_emitted " +
                            std::to_string(q.stats.pairs_emitted));
    ok &= Report::Check(
        replay.steps == q.stats.steps &&
            replay.transitions_applied == drive.transitions.size() &&
            replay.catchup_tuples == drive.catchup_tuples,
        label + ": replay diverged from the recorded transitions");
    report->Attempt(ok);

    if (parse_by_case.count(q.spec.case_index) == 0) {
      AQP_ASSIGN_OR_RETURN(
          parse_by_case[q.spec.case_index],
          TimeCsvParse(inputs, q.spec.case_index, &spans, root.index(), id));
    }
    const CsvParseResult& parse = parse_by_case[q.spec.case_index];
    sums.parse_ms += parse.parse_ms;
    sums.parse_bytes += static_cast<double>(parse.bytes);
    sums.engine_ms += drive.engine_ms;
    sums.critical_route_ms += drive.critical_route_ms;
    sums.materialize_ms += drive.materialize_ms;
    sums.refs += static_cast<double>(drive.refs);
    sums.epochs += static_cast<double>(drive.epochs);
    sums.steps += static_cast<double>(drive.steps);
    sums.approx_steps += static_cast<double>(drive.approx_steps);
    sums.transitions += static_cast<double>(drive.transitions.size());
    sums.trace_catchup_tuples += static_cast<double>(drive.catchup_tuples);
    sums.probes.MergeFrom(drive.probes);
    sums.route_ms += static_cast<double>(replay.route_ns) / 1e6;
    sums.phase_a_ms += static_cast<double>(replay.phase_a_ns) / 1e6;
    sums.phase_b_ms += static_cast<double>(replay.phase_b_ns) / 1e6;
    sums.catchup_ms += static_cast<double>(replay.catchup_ns) / 1e6;
    for (int64_t ns : replay.phase_a_busy_ns) {
      sums.phase_a_busy_ms += static_cast<double>(ns) / 1e6;
    }
    sums.phase_a_skew += Skew(replay.phase_a_busy_ns);
    if (replay.phase_b_ns > 0) {
      sums.phase_b_skew += Skew(replay.phase_b_busy_ns);
      ++sums.phase_b_queries;
    }
    sums.catchup_tuples += static_cast<double>(replay.catchup_tuples);
    sums.overhead_ms +=
        std::chrono::duration<double, std::milli>(q.stats.elapsed).count() -
        drive.engine_ms;
    sums.stall_ms += static_cast<double>(q.stats.ingest.stall_ns) / 1e6;
    sums.overlap_route_ms +=
        static_cast<double>(q.stats.ingest.overlap_route_ns) / 1e6;
    sums.epochs_staged += static_cast<double>(q.stats.ingest.epochs_staged);
  }
  const double barrier_us = TimeBarrier(&pool, run.threads.shards, &spans);

  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<double> late_ms;
  double finalized_early = 0.0;
  double forced_exact = 0.0;
  for (const QueryRun& q : run.queries) {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(q.stats.elapsed).count();
    queue_wait_ms.push_back(q.latency_ms - elapsed_ms);
    run_ms.push_back(elapsed_ms);
    late_ms.push_back(q.late_ms);
    finalized_early += q.stats.finalized_early ? 1.0 : 0.0;
    forced_exact += q.stats.forced_exact ? 1.0 : 0.0;
  }
  const double queries = static_cast<double>(run.queries.size());

  const double parse_ms = sums.parse_ms / k;
  const double route_ms = sums.route_ms / k;
  const double replay_ms =
      sums.route_ms + sums.phase_a_ms + sums.phase_b_ms + sums.catchup_ms;
  // Pipelined ingest hides most routing behind the phases, so only the
  // engine's critical-path routing counts against its wall time.
  const double residual_ms =
      (sums.engine_ms - sums.critical_route_ms - sums.phase_a_ms -
       sums.phase_b_ms - sums.catchup_ms) /
      k;
  report->Add("csv_io.parse_ms", parse_ms, "ms");
  report->Add("csv_io.mb_per_s",
              Ratio(sums.parse_bytes / 1e6, sums.parse_ms / 1e3), "MB/s");
  report->Add("exchange.route_ms", route_ms, "ms");
  report->Add("exchange.route_self_ms",
              inputs.csv() ? route_ms - parse_ms : route_ms, "ms");
  report->Add("ingest.stall_ms", sums.stall_ms / k, "ms");
  report->Add("ingest.overlap_route_ms", sums.overlap_route_ms / k, "ms");
  report->Add("ingest.epochs_staged", sums.epochs_staged / k, "count");
  report->Add("shard.phase_a_ms", sums.phase_a_ms / k, "ms");
  report->Add("shard.phase_a_busy_ms", sums.phase_a_busy_ms / k, "ms");
  report->Add("shard.phase_a_skew", sums.phase_a_skew / k, "ratio");
  report->Add("shard.phase_b_share", Ratio(sums.phase_b_ms, replay_ms),
              "fraction");
  report->Add("shard.phase_b_skew",
              Ratio(sums.phase_b_skew, sums.phase_b_queries), "ratio");
  report->Add("shard.catchup_share", Ratio(sums.catchup_ms, replay_ms),
              "fraction");
  report->Add("shard.catchup_tuples", sums.catchup_tuples / k, "count");
  report->Add("join.postings_scanned",
              static_cast<double>(sums.probes.postings_scanned) / k, "count");
  report->Add("join.candidates",
              static_cast<double>(sums.probes.candidates) / k, "count");
  report->Add("join.verified", static_cast<double>(sums.probes.verified) / k,
              "count");
  report->Add("join.matches", static_cast<double>(sums.probes.matches) / k,
              "count");
  report->Add("join.verify_yield",
              Ratio(static_cast<double>(sums.probes.matches),
                    static_cast<double>(sums.probes.verified)),
              "ratio");
  report->Add("adaptive.transitions", sums.transitions / k, "count");
  report->Add("adaptive.approx_step_share",
              Ratio(sums.approx_steps, sums.steps), "fraction");
  report->Add("adaptive.catchup_tuples", sums.trace_catchup_tuples / k,
              "count");
  report->Add("parallel_join.engine_ms", sums.engine_ms / k, "ms");
  report->Add("parallel_join.epochs", sums.epochs / k, "count");
  report->Add("parallel_join.residual_ms", residual_ms, "ms");
  report->Add("parallel_join.residual_us_per_epoch",
              Ratio(residual_ms * 1e3, sums.epochs / k), "us");
  report->Add("parallel_join.materialize_ms", sums.materialize_ms / k, "ms");
  report->Add("parallel_join.materialize_ns_per_row",
              Ratio(sums.materialize_ms * 1e6, sums.refs), "ns");
  report->Add("thread_pool.barrier_us", barrier_us, "us");
  report->Add("service.queue_wait_ms_p50", Median(queue_wait_ms), "ms");
  report->Add("service.queue_wait_ms_p95", Quantile(queue_wait_ms, 0.95),
              "ms");
  report->Add("service.run_ms_p50", Median(run_ms), "ms");
  report->Add("service.overhead_ms", sums.overhead_ms / k, "ms");
  report->Add("service.backlog_max", static_cast<double>(run.backlog_max),
              "count");
  report->Add("service.finalized_early_frac", finalized_early / queries,
              "fraction");
  report->Add("service.forced_exact_frac", forced_exact / queries,
              "fraction");
  report->Add("loadgen.late_ms_p99", Quantile(late_ms, 0.99), "ms");

  spans.PrintSelfTimes(stderr);
  if (!config.trace_out.empty()) {
    AQP_RETURN_IF_ERROR(spans.WriteChromeTrace(config.trace_out));
    std::fprintf(stderr, "  wrote %zu spans to %s\n", spans.size(),
                 config.trace_out.c_str());
  }
  return Status::OK();
}

/// Runs one workload (untraced or traced) and prints its result.
/// Returns the process exit code.
int RunOne(const RunConfig& config) {
  std::fprintf(stderr,
               "bench_linkage workload=%s seed=%llu seconds=%g trace=%d "
               "host_cpus=%u\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0, std::thread::hardware_concurrency());
  Report report;
  WorkloadRun run;
  Status status = RunWorkload(config, &run, &report);
  if (status.ok() && config.trace) {
    status = TraceWorkload(config, run, &report);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench_linkage: %s\n", status.ToString().c_str());
    return 1;
  }
  // A smoke run is traced, and prints the end-to-end metrics too.
  if (!config.trace || config.smoke) ReportEndToEnd(run, &report);
  report.PrintTable(config.workload + (config.trace ? " (traced)" : ""),
                    stderr);
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_linkage: built without NDEBUG; its numbers would not "
               "be measurements. Configure with -DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  FlagParser flags;
  flags.AddString("workload", "", "paper_matrix, feed_csv or serve_open");
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "seed the inputs are generated from");
  flags.AddDouble("seconds", 20.0, "how long one run measures");
  flags.AddBool("trace", false, "report per-layer metrics instead");
  flags.AddString("trace-out", "",
                  "traced run: write spans as Chrome trace-event JSON here");
  flags.AddBool("smoke", false,
                "all workloads at reduced size, traced, with every check");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || !flags.positional().empty()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  RunConfig config;
  config.workload = flags.GetString("workload");
  config.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  config.seconds = flags.GetDouble("seconds");
  config.trace = flags.GetBool("trace");
  config.trace_out = flags.GetString("trace-out");
  if (!(config.seconds > 0.0)) {
    std::fprintf(stderr, "bench_linkage: --seconds must be positive\n");
    return 2;
  }
  if (!flags.GetBool("smoke")) return RunOne(config);

  config.smoke = true;
  config.trace = true;
  int exit_code = 0;
  for (const char* workload : {"paper_matrix", "feed_csv", "serve_open"}) {
    config.workload = workload;
    exit_code = std::max(exit_code, RunOne(config));
  }
  return exit_code;
}

}  // namespace
}  // namespace linkbench
}  // namespace aqp

int main(int argc, char** argv) { return aqp::linkbench::Main(argc, argv); }
