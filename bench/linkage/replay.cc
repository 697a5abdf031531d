#include "bench/linkage/replay.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "exec/csv_io.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/parallel_join.h"
#include "exec/parallel/shard.h"
#include "storage/column_batch.h"

namespace aqp {
namespace linkbench {

namespace {

using exec::parallel::JoinShard;
using exec::parallel::ThreadPool;

int64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Runs one engine phase on the pool for one replayed query: `body(i)`
/// for every shard i as one task group — the engine's phase barrier —
/// recording the phase span with one child span per task.
class PhaseRunner {
 public:
  PhaseRunner(ThreadPool* pool, size_t shards, SpanRecorder* spans,
              int64_t parent, uint64_t query)
      : pool_(pool),
        shards_(shards),
        spans_(spans),
        parent_(parent),
        query_(query),
        slots_(shards) {}

  /// Adds each task's busy time to `(*busy)[i]` when `busy` is set.
  /// Returns the barrier-to-barrier wall time.
  Result<int64_t> Run(const std::function<void(size_t)>& body,
                      const char* phase, const char* task,
                      std::vector<int64_t>* busy) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards_);
    for (size_t i = 0; i < shards_; ++i) {
      tasks.push_back([this, &body, i] {
        slots_[i].start = Clock::now();
        body(i);
        slots_[i].end = Clock::now();
        slots_[i].lane = SpanRecorder::CurrentLane();
      });
    }
    const Clock::time_point start = Clock::now();
    Status status = pool_->Run(std::move(tasks));
    const Clock::time_point end = Clock::now();
    if (!status.ok()) return status;
    const int64_t span = spans_->Add(phase, start, end, parent_, query_,
                                     SpanRecorder::CurrentLane());
    for (size_t i = 0; i < shards_; ++i) {
      const Slot& slot = slots_[i];
      spans_->Add(task, slot.start, slot.end, span, query_, slot.lane);
      if (busy != nullptr) (*busy)[i] += NanosBetween(slot.start, slot.end);
    }
    return NanosBetween(start, end);
  }

 private:
  struct Slot {
    Clock::time_point start;
    Clock::time_point end;
    int lane = 0;
  };
  ThreadPool* pool_;
  size_t shards_;
  SpanRecorder* spans_;
  int64_t parent_;
  uint64_t query_;
  std::vector<Slot> slots_;
};

}  // namespace

Result<DriveResult> DriveQuery(const Inputs& inputs, const QuerySpec& spec,
                               SpanRecorder* spans, int64_t parent,
                               uint64_t query) {
  const service::QueryOptions query_options = MakeQueryOptions(inputs, spec);
  exec::parallel::ParallelJoinOptions options = query_options.join;
  const service::DeadlineOptions deadline = query_options.deadline;
  // The service's step-deadline policy, without the service.
  options.governor = [deadline](const exec::parallel::EpochView& view) {
    if (deadline.hard_deadline_steps > 0 &&
        view.steps >= deadline.hard_deadline_steps) {
      return exec::parallel::EpochDirective::kFinalize;
    }
    if (deadline.soft_deadline_steps > 0 &&
        view.steps >= deadline.soft_deadline_steps) {
      return exec::parallel::EpochDirective::kForceExactOnly;
    }
    return exec::parallel::EpochDirective::kProceed;
  };
  Children children = MakeChildren(inputs, spec.case_index);
  exec::parallel::ParallelAdaptiveJoin join(children.left.get(),
                                            children.right.get(), options);
  AQP_RETURN_IF_ERROR(join.Open());

  DriveResult result;
  std::vector<exec::parallel::ParallelMatchRef> refs;
  std::vector<exec::parallel::ParallelMatchRef> batch;
  Status drained;
  {
    ScopedSpan span(spans, "parallel_join.drive", parent, query);
    const Clock::time_point start = Clock::now();
    while (true) {
      drained = join.NextMatchRefs(query_options.drain_batch, &batch);
      if (!drained.ok() || batch.empty()) break;
      refs.insert(refs.end(), batch.begin(), batch.end());
    }
    result.engine_ms = MsBetween(start, Clock::now());
  }
  if (!drained.ok()) {
    (void)join.Close();
    return drained;
  }
  {
    ScopedSpan span(spans, "parallel_join.materialize", parent, query);
    const Clock::time_point start = Clock::now();
    storage::ColumnBatch out(&join.output_schema());
    for (const exec::parallel::ParallelMatchRef& ref : refs) {
      join.MaterializeRefInto(ref, &out);
      if (out.full()) out.Clear();
    }
    result.materialize_ms = MsBetween(start, Clock::now());
  }

  result.refs = refs.size();
  result.pairs = join.pairs_emitted();
  result.steps = join.steps();
  result.epochs = join.epochs_completed();
  result.critical_route_ms =
      static_cast<double>(join.ingest_stats().stall_ns +
                          join.ingest_stats().serial_route_ns) /
      1e6;
  const adaptive::CostAccountant& cost = join.cost();
  result.approx_steps =
      cost.total_steps() - cost.steps(adaptive::ProcessorState::kLexRex);
  for (const adaptive::AssessmentRecord& record : join.trace().records()) {
    if (!record.transitioned()) continue;
    result.transitions.push_back(
        Transition{record.assessment.step, record.state_after});
    result.catchup_tuples += record.catchup_left + record.catchup_right;
  }
  for (size_t i = 0; i < join.num_shards(); ++i) {
    result.probes.MergeFrom(join.shard(i).core().approx_probe_stats());
    result.probes.MergeFrom(join.shard(i).cross_probe_stats());
  }
  AQP_RETURN_IF_ERROR(join.Close());
  return result;
}

Result<ReplayResult> ReplayQuery(const Inputs& inputs, const QuerySpec& spec,
                                 const std::vector<Transition>& transitions,
                                 uint64_t stop_steps, ThreadPool* pool,
                                 SpanRecorder* spans, int64_t parent,
                                 uint64_t query) {
  const service::QueryOptions query_options = MakeQueryOptions(inputs, spec);
  const exec::parallel::ParallelJoinOptions& options = query_options.join;
  const join::SymmetricJoinOptions& join_options = options.base.join;
  Children children = MakeChildren(inputs, spec.case_index);
  // The guards close the children on every exit path.
  AQP_RETURN_IF_ERROR(children.left->Open());
  exec::OpenGuard left_guard(children.left.get());
  AQP_RETURN_IF_ERROR(children.right->Open());
  exec::OpenGuard right_guard(children.right.get());

  // The shard set and exchange exactly as ParallelAdaptiveJoin::Open
  // builds them.
  const size_t n = spec.shards;
  adaptive::ProcessorState state = options.base.adaptive.initial_state;
  std::vector<std::unique_ptr<JoinShard>> shards;
  std::vector<JoinShard*> shard_ptrs;
  for (size_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<JoinShard>(
        static_cast<uint32_t>(i), join_options.spec, join_options.approx,
        state));
    shards.back()->BindSchemas(&children.left->output_schema(),
                               &children.right->output_schema());
    const size_t left = join_options.left_size_hint;
    const size_t right = join_options.right_size_hint;
    shards.back()->ReserveStores(left / n + left / (2 * n) + 1,
                                 right / n + right / (2 * n) + 1);
    shard_ptrs.push_back(shards.back().get());
  }
  exec::parallel::RadixExchange exchange(
      children.left.get(), children.right.get(), join_options.spec,
      join_options.interleave, join_options.left_size_hint,
      join_options.right_size_hint, join_options.batch_size, n);
  exchange.Reset();

  // Adaptive epochs end at every δ_adapt control point; pinned runs
  // have none and use the engine's unbounded epoch length.
  const uint64_t epoch_steps =
      options.base.adaptive.policy == adaptive::AdaptivePolicy::kAdaptive
          ? options.base.adaptive.delta_adapt
          : options.unbounded_epoch_steps;

  ReplayResult result;
  result.phase_a_busy_ns.assign(n, 0);
  result.phase_b_busy_ns.assign(n, 0);
  PhaseRunner phases(pool, n, spans, parent, query);
  std::vector<exec::parallel::RouteEntry> route;
  std::vector<std::pair<uint64_t, uint64_t>> catchups(n);
  adaptive::ProcessorState next = state;
  const auto catch_up = [&](size_t i) {
    catchups[i] = shard_ptrs[i]->ApplyState(next);
  };
  const auto build = [&](size_t i) {
    shard_ptrs[i]->BeginEpoch();
    shard_ptrs[i]->RunBuildPhase();
  };
  const auto cross_probe = [&](size_t i) {
    shard_ptrs[i]->RunCrossProbePhase(shard_ptrs);
  };
  while (true) {
    const uint64_t steps = exchange.steps();
    // Control point: apply every transition the engine recorded here.
    while (result.transitions_applied < transitions.size() &&
           transitions[result.transitions_applied].step == steps) {
      next = transitions[result.transitions_applied].state;
      AQP_ASSIGN_OR_RETURN(
          const int64_t catchup_ns,
          phases.Run(catch_up, "shard.catchup", "shard.catchup.task", nullptr));
      result.catchup_ns += catchup_ns;
      for (const auto& [left, right] : catchups) {
        result.catchup_tuples += left + right;
      }
      state = next;
      ++result.transitions_applied;
    }
    if (steps >= stop_steps) break;

    route.clear();
    const uint64_t budget = std::min(epoch_steps, stop_steps - steps);
    const Clock::time_point route_start = Clock::now();
    Result<uint64_t> routed = exchange.RouteEpoch(budget, shard_ptrs, &route);
    const Clock::time_point route_end = Clock::now();
    if (!routed.ok()) return routed.status();
    spans->Add("exchange.route", route_start, route_end, parent, query,
               SpanRecorder::CurrentLane());
    result.route_ns += NanosBetween(route_start, route_end);
    if (*routed == 0) break;

    AQP_ASSIGN_OR_RETURN(
        const int64_t phase_a_ns,
        phases.Run(build, "shard.phase_a", "shard.phase_a.task",
                   &result.phase_a_busy_ns));
    result.phase_a_ns += phase_a_ns;
    // Exact matches are intra-shard; cross-shard probing runs only when
    // some input probes approximately, as in the engine.
    const bool any_approx =
        adaptive::LeftMode(state) == join::ProbeMode::kApproximate ||
        adaptive::RightMode(state) == join::ProbeMode::kApproximate;
    if (any_approx && n > 1) {
      AQP_ASSIGN_OR_RETURN(
          const int64_t phase_b_ns,
          phases.Run(cross_probe, "shard.phase_b", "shard.phase_b.task",
                     &result.phase_b_busy_ns));
      result.phase_b_ns += phase_b_ns;
    }
    for (const JoinShard* shard : shard_ptrs) {
      result.pairs += shard->matches().size() + shard->cross_matches().size();
    }
    ++result.epochs;
  }
  result.steps = exchange.steps();
  return result;
}

Result<CsvParseResult> TimeCsvParse(const Inputs& inputs, size_t case_index,
                                    SpanRecorder* spans, int64_t parent,
                                    uint64_t query) {
  std::string child_csv;
  std::string parent_csv;
  if (inputs.csv()) {
    child_csv = inputs.child_csv[case_index];
    parent_csv = inputs.parent_csv[case_index];
  } else {
    child_csv = RelationCsv(inputs.cases[case_index].child);
    parent_csv = RelationCsv(inputs.cases[case_index].parent);
  }
  CsvParseResult result;
  result.bytes = child_csv.size() + parent_csv.size();
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    exec::CsvSource child_source(inputs.child_schema, child_csv);
    exec::CsvSource parent_source(inputs.parent_schema, parent_csv);
    ScopedSpan span(spans, "csv_io.parse", parent, query);
    const Clock::time_point start = Clock::now();
    for (exec::CsvSource* source : {&child_source, &parent_source}) {
      AQP_RETURN_IF_ERROR(source->Open());
      storage::ColumnBatch batch(&source->output_schema());
      do {
        AQP_RETURN_IF_ERROR(source->NextColumnBatch(&batch));
      } while (!batch.empty());
      AQP_RETURN_IF_ERROR(source->Close());
    }
    samples.push_back(MsBetween(start, Clock::now()));
  }
  result.parse_ms = Median(samples);
  return result;
}

double TimeBarrier(ThreadPool* pool, size_t tasks, SpanRecorder* spans) {
  ScopedSpan span(spans, "thread_pool.barrier", kNoParent, 0);
  std::vector<double> samples;
  for (int rep = 0; rep < 2000; ++rep) {
    std::vector<std::function<void()>> empty(tasks, [] {});
    const Clock::time_point start = Clock::now();
    (void)pool->Run(std::move(empty));
    samples.push_back(MsBetween(start, Clock::now()) * 1e3);
  }
  return Median(samples);
}

}  // namespace linkbench
}  // namespace aqp
