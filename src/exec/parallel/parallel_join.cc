#include "exec/parallel/parallel_join.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "exec/csv_io.h"

namespace aqp {
namespace exec {
namespace parallel {

using adaptive::LeftMode;
using adaptive::ProcessorState;
using adaptive::RightMode;

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<unsigned>(hw == 0 ? 1 : hw, 64));
}

/// True iff a fault of this code may be degraded into an early
/// finalization. Internal errors signal broken invariants (the global
/// state cannot be trusted), cancellation is a teardown order, and a
/// failed precondition is a caller bug — none of those produce a
/// result worth delivering.
bool RecoverableFaultCode(const Status& status) {
  return !status.IsInternal() && !status.IsCancelled() &&
         !status.IsFailedPrecondition();
}

/// Pulls the "site=<name>" breadcrumb out of an injected fault's
/// message (empty when the error carries none).
std::string ExtractFaultSite(const Status& status) {
  const std::string& message = status.message();
  const size_t pos = message.find("site=");
  if (pos == std::string::npos) return "";
  size_t end = pos + 5;
  while (end < message.size() && message[end] != ':' &&
         message[end] != ' ') {
    ++end;
  }
  return message.substr(pos + 5, end - (pos + 5));
}

}  // namespace

ParallelAdaptiveJoin::ParallelAdaptiveJoin(exec::Operator* left,
                                           exec::Operator* right,
                                           ParallelJoinOptions options)
    : left_(left),
      right_(right),
      options_(std::move(options)),
      controller_(options_.base.adaptive, options_.base.weights) {
  options_.num_shards = ResolveShardCount(options_.num_shards);
  if (options_.unbounded_epoch_steps == 0) {
    options_.unbounded_epoch_steps =
        ParallelJoinOptions().unbounded_epoch_steps;
  }
}

ParallelAdaptiveJoin::~ParallelAdaptiveJoin() {
  // An ingest task still in flight (Close skipped, e.g. teardown after
  // an error) references this object's exchange and shards; it must
  // finish before any member is destroyed — in particular on a shared
  // pool, which outlives this operator.
  AbandonStagedIngest();
}

Status ParallelAdaptiveJoin::Open() {
  if (opened_) {
    return Status::FailedPrecondition(name() +
                                      " is single-use: already opened");
  }
  AQP_RETURN_IF_ERROR(options_.base.adaptive.Validate());
  const join::SymmetricJoinOptions& join_options = options_.base.join;
  AQP_RETURN_IF_ERROR(join_options.spec.ValidateAgainstSchemas(
      left_->output_schema(), right_->output_schema()));
  AQP_RETURN_IF_ERROR(left_->Open());
  exec::OpenGuard left_guard(left_);
  AQP_RETURN_IF_ERROR(right_->Open());
  exec::OpenGuard right_guard(right_);
  // Both children are open and guarded: an error returned here must
  // close them both (the OpenGuard regression surface).
  AQP_FAILPOINT(fail::site::kParallelOpen);
  output_schema_ =
      join::JoinOutputSchema(left_->output_schema(), right_->output_schema(),
                             join_options.emit_similarity);
  left_width_ = left_->output_schema().num_fields();

  const size_t n = options_.num_shards;
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<JoinShard>(
        static_cast<uint32_t>(i), join_options.spec, join_options.approx,
        controller_.state()));
    shards_.back()->BindSchemas(&left_->output_schema(),
                                &right_->output_schema());
    // Per-shard share of the size hints (slack for hash skew).
    shards_.back()->ReserveStores(
        join_options.left_size_hint == 0
            ? 0
            : join_options.left_size_hint / n + join_options.left_size_hint / (2 * n) + 1,
        join_options.right_size_hint == 0
            ? 0
            : join_options.right_size_hint / n + join_options.right_size_hint / (2 * n) + 1);
    shard_ptrs_.push_back(shards_.back().get());
  }
  exchange_ = std::make_unique<RadixExchange>(
      left_, right_, join_options.spec, join_options.interleave,
      join_options.left_size_hint, join_options.right_size_hint,
      join_options.batch_size, n, options_.source_retry);
  exchange_->Reset();
  if (options_.shared_pool != nullptr) {
    // Serving mode: phase task groups go to the injected pool, which
    // interleaves them fairly with other queries' groups.
    active_pool_ = options_.shared_pool;
  } else {
    // The coordinator participates in every phase group, so n - 1
    // workers give exactly n execution lanes for n per-shard tasks.
    // Ingest needs at least one worker even single-sharded, so the
    // ingest task has a lane to overlap on.
    pool_ = std::make_unique<ThreadPool>(std::max<size_t>(1, n - 1));
    active_pool_ = pool_.get();
  }

  merge_cursor_.assign(n, 0);
  cross_cursor_.assign(n, 0);
  if (options_.memory_budget != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      shard_nodes_.push_back(std::make_unique<mem::BudgetNode>(
          "shard" + std::to_string(i), options_.memory_budget));
    }
    coord_node_ = std::make_unique<mem::BudgetNode>("coordinator",
                                                    options_.memory_budget);
  }
  left_guard.Dismiss();
  right_guard.Dismiss();
  opened_ = true;
  open_ = true;
  return Status::OK();
}

Status ParallelAdaptiveJoin::Close() {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  open_ = false;
  // The in-flight ingest task (if any) reads the children through the
  // exchange; it must drain before they close — especially on a shared
  // pool, where resetting pool_ below joins nothing.
  AbandonStagedIngest();
  pool_.reset();
  active_pool_ = nullptr;
  AQP_RETURN_IF_ERROR(left_->Close());
  AQP_RETURN_IF_ERROR(right_->Close());
  return Status::OK();
}

stats::JoinProgress ParallelAdaptiveJoin::ProgressAt(uint64_t step) const {
  const adaptive::AdaptiveOptions& adaptive = options_.base.adaptive;
  const exec::Side child_side = exec::OtherSide(adaptive.parent_side);
  // The merge has reached `step`: its counters describe exactly the
  // steps before it, which is what a run whose epochs all ended at
  // `step` would publish there.
  stats::JoinProgress progress;
  progress.parents_scanned =
      merged_side_count_[static_cast<size_t>(adaptive.parent_side)];
  progress.children_scanned =
      merged_side_count_[static_cast<size_t>(child_side)];
  progress.children_matched =
      adaptive.use_pairs_statistic
          ? pairs_emitted_
          : matched_any_count_[static_cast<size_t>(child_side)];
  progress.parent_exhausted =
      exchange_->exhausted_before(adaptive.parent_side, step);
  return progress;
}

stats::JoinProgress ParallelAdaptiveJoin::Progress() const {
  // Between drive calls the merge has consumed every published step,
  // and an end of stream found while routing the last of them counts.
  stats::JoinProgress progress = ProgressAt(exchange_->steps());
  progress.parent_exhausted =
      exchange_->input_exhausted(options_.base.adaptive.parent_side);
  return progress;
}

CompletenessStats ParallelAdaptiveJoin::Completeness() const {
  CompletenessStats out;
  if (exchange_ == nullptr) return out;
  const stats::JoinProgress progress = Progress();
  out.expected_matches = controller_.model().ExpectedMatches(progress);
  out.observed_matches = progress.children_matched;
  out.ratio = out.expected_matches > 0.0
                  ? std::min(1.0, static_cast<double>(out.observed_matches) /
                                      out.expected_matches)
                  : 1.0;
  // CSV feeds report quarantined (skipped-and-logged) records so a
  // "complete" scan over a dirty file is never silently lossy.
  for (const exec::Operator* child : {left_, right_}) {
    if (const auto* csv = dynamic_cast<const exec::CsvSource*>(child)) {
      out.quarantined_rows += csv->bad_rows();
    }
  }
  return out;
}

Result<std::pair<uint64_t, uint64_t>> ParallelAdaptiveJoin::ApplyTransition(
    ProcessorState next, uint64_t step) {
  // Broadcast: every shard drops the tuples it already processed from
  // `step` on (phase A may have run past it) and enters the new state,
  // catching up its own lagging structures in parallel. The summed
  // per-shard catch-up counts equal the single-threaded engine's,
  // because the shard stores partition the global store and every
  // shard last switched at the same global boundary.
  std::vector<std::pair<uint64_t, uint64_t>> catchups(shards_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    JoinShard* shard = shard_ptrs_[i];
    auto* slot = &catchups[i];
    tasks.push_back([shard, next, step, slot] {
      shard->RollbackTo(step);
      *slot = shard->ApplyState(next);
    });
  }
  Status broadcast = RunTasks(std::move(tasks));
  if (!broadcast.ok()) {
    // Some shards switched, some did not: the safe-state-transfer
    // invariant is broken and no epoch may run on the mixed states.
    // Never degradable — the caller makes this the sticky pump error.
    return Status::Internal("state-transition broadcast failed: " +
                            broadcast.ToString());
  }
  std::pair<uint64_t, uint64_t> total{0, 0};
  for (const auto& [left, right] : catchups) {
    total.first += left;
    total.second += right;
  }
  return total;
}

Status ParallelAdaptiveJoin::PumpEpoch() {
  if (!pump_error_.ok()) return pump_error_;
  route_.clear();
  merged_ = 0;
  epoch_start_ = exchange_->steps();
  // A control point due at the boundary runs before the epoch is
  // routed, so a transition there needs no redo.
  const bool at_control_point = epoch_start_ == next_control_step_;
  if (at_control_point) {
    bool transitioned = false;
    AQP_RETURN_IF_ERROR(ControlPointAt(epoch_start_, &transitioned));
    if (stream_done_) return Status::OK();
  } else if (finalize_requested_) {
    FinishEarly(epoch_start_);
    return Status::OK();
  }

  if (ingest_inflight_) {
    // Swap point: the epoch's route was staged by the ingest task
    // during the previous epoch. Wait for it, then commit the staged
    // tier — counters publish, shard staged rows become the epoch's
    // input.
    Status ingest = WaitIngest();
    if (!ingest.ok()) return HandleEpochFault(std::move(ingest), /*shard=*/-1);
    route_.swap(staged_route_);
    exchange_->CommitStaged(shard_ptrs_);
    ++ingest_stats_.epochs_staged;
  } else if (!exchange_->input_exhausted(exec::Side::kLeft) ||
             !exchange_->input_exhausted(exec::Side::kRight)) {
    // Nothing in flight (the first epoch): route on the coordinator,
    // through the same staged tier.
    const auto route_start = std::chrono::steady_clock::now();
    auto coordinator_routed =
        exchange_->RouteEpoch(NextEpochSteps(), shard_ptrs_, &route_);
    ingest_stats_.serial_route_ns += ElapsedNs(route_start);
    ++ingest_stats_.epochs_routed_serially;
    if (!coordinator_routed.ok()) {
      // Mid-epoch routing failure: RouteEpoch already discarded the
      // staged rows and nothing was published — the same state a
      // staging fault leaves. The exchange's scheduler position cannot
      // be rewound, so on_fault decides between the sticky error and a
      // degraded partial-result finalization.
      route_.clear();
      return HandleEpochFault(coordinator_routed.status(), /*shard=*/-1);
    }
  }
  if (route_.empty()) {
    // End of stream: its step is always a governor point, even when
    // no control point is due there.
    if (!at_control_point) {
      bool transitioned = false;
      AQP_RETURN_IF_ERROR(ControlPointAt(epoch_start_, &transitioned));
      if (stream_done_) return Status::OK();
    }
    stream_done_ = true;
    UpdateMemoryAccounting();
    return Status::OK();
  }
  // With the staged tier now swapped into the epoch tier, it is free
  // again: start routing the next epoch while this one's phases
  // execute.
  MaybeSubmitIngest();

  int32_t failed_shard = -1;
  Status phases = RunPhases(epoch_start_, &failed_shard);
  if (!phases.ok()) {
    // A shard died mid-ingest. Its store may hold a prefix of the
    // epoch's rows, but no ref or flag references them — output and
    // global state come only from *merged* steps — so the completed
    // prefix is intact and degradable.
    return HandleEpochFault(std::move(phases), failed_shard);
  }

  // Coordinator merge-entry fault site: fires before the merge mutates
  // any global state, so it aborts the epoch like a phase fault.
  auto merge_entry = []() -> Status {
    AQP_FAILPOINT(fail::site::kExchangeMerge);
    return Status::OK();
  };
  Status merge_site = merge_entry();
  if (!merge_site.ok()) {
    return HandleEpochFault(std::move(merge_site), /*shard=*/-1);
  }

  // The merge walks the epoch in global step order and runs every
  // control point it crosses with the progress as of that step. A stay
  // costs nothing more; a transition rolls the shards back to the
  // step, and the phases run again over the rows from there in the new
  // state.
  for (size_t s = 0; s < 2; ++s) {
    const size_t count = exchange_->side_count(static_cast<exec::Side>(s));
    matched_exactly_[s].resize(count, 0);
    matched_any_[s].resize(count, 0);
  }
  epoch_observables_.clear();
  epoch_observables_.reserve(route_.size());
  for (; merged_ < route_.size(); ++merged_) {
    const uint64_t step = epoch_start_ + merged_;
    if (step == next_control_step_) {
      FlushObservables();
      bool transitioned = false;
      AQP_RETURN_IF_ERROR(ControlPointAt(step, &transitioned));
      if (stream_done_) return Status::OK();
      if (transitioned) {
        redone_steps_ += phases_end_ - step;
        phases_end_ = step;
      }
    }
    if (step == phases_end_) {
      phases = RunPhases(step, &failed_shard);
      if (!phases.ok()) {
        return HandleEpochFault(std::move(phases), failed_shard);
      }
    }
    Status merged = MergeStep();
    if (!merged.ok()) {
      // A broken merge invariant means global state (flags, monitor)
      // may already be partially updated; no epoch may run after it
      // and the fault is never degradable.
      pump_error_ = merged.WithContext("epoch=" + std::to_string(epoch_));
      return pump_error_;
    }
  }
  FlushObservables();
  ++epoch_;
  // The merged epoch's route is spent: drop it now so a fault at the
  // *next* boundary (a failed budget charge) cannot mistake its
  // already-published, already-merged rows for an aborted epoch and
  // roll them back.
  route_.clear();
  return Status::OK();
}

Status ParallelAdaptiveJoin::ControlPointAt(uint64_t step, bool* transitioned) {
  *transitioned = false;
  // No phase runs while the merge does, so budgeted runs can charge
  // their accounting tree here: the governor's view (and any budget
  // decision it takes) sees this control point's footprint, stores
  // grown by the phases' run-ahead included.
  if (options_.memory_budget != nullptr) {
    Status charged = RefreshMemoryAccounting();
    if (!charged.ok()) {
      // An injected charge fault (`budget.charge`) degrades like any
      // recoverable epoch fault, cutting the output at this step.
      return HandleEpochFault(std::move(charged), /*shard=*/-1);
    }
  }
  if (options_.governor) {
    EpochView view;
    view.steps = step;
    view.pairs_emitted = pairs_emitted_;
    view.state = controller_.state();
    view.memory_bytes = memory_bytes_;
    switch (options_.governor(view)) {
      case EpochDirective::kProceed:
        break;
      case EpochDirective::kForceExactOnly:
        controller_.ForceExactOnly();
        break;
      case EpochDirective::kFinalize:
        finalize_requested_ = true;
        break;
      case EpochDirective::kCancel:
        // Buffered output is not delivered, and neither is the staged
        // epoch: drain the ingest task and drop its work.
        TruncateAt(step);
        pump_error_ = Status::Cancelled(name() + " cancelled at step " +
                                        std::to_string(step));
        return pump_error_;
    }
  }
  if (finalize_requested_) {
    FinishEarly(step);
    return Status::OK();
  }
  // The MAR control point, soft-deadline clamp included.
  Status control = controller_.ControlPoint(
      step, ProgressAt(step), [this, step, transitioned](ProcessorState next) {
        *transitioned = true;
        return ApplyTransition(next, step);
      });
  if (!control.ok()) {
    // A failed catch-up broadcast leaves shard probe states mixed —
    // never degradable (see ApplyTransition).
    AbandonStagedIngest();
    pump_error_ = control.WithContext("epoch=" + std::to_string(epoch_));
    return pump_error_;
  }
  if (*transitioned) transition_since_staged_ = true;
  // The next one is the Controller's next control point; with nothing
  // scheduled, the governor still gets every multiple of the base
  // epoch length, which includes every epoch boundary.
  const uint64_t until = controller_.StepsUntilControlPoint(step);
  const uint64_t epoch = options_.unbounded_epoch_steps;
  next_control_step_ = until != adaptive::Controller::kNoControlPoint
                           ? step + until
                           : (step / epoch + 1) * epoch;
  return Status::OK();
}

Status ParallelAdaptiveJoin::RunPhases(uint64_t from_step,
                                       int32_t* failed_shard) {
  // Several shards run ahead to the end of the epoch: stopping at each
  // control point would cost a barrier there, and a redo happens only
  // where a transition does. A single shard has no barrier to save, so
  // it stops at the next control point and never redoes work.
  const uint64_t epoch_end = epoch_start_ + route_.size();
  const uint64_t to_step = shards_.size() > 1
                               ? epoch_end
                               : std::min(epoch_end, next_control_step_);
  for (JoinShard* shard : shard_ptrs_) shard->BeginEpoch();
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), 0);
  std::fill(cross_cursor_.begin(), cross_cursor_.end(), 0);
  phases_end_ = to_step;
  // Phase A: per-shard step loops over their partitions.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (JoinShard* shard : shard_ptrs_) {
    tasks.push_back([shard, from_step, to_step] {
      shard->RunBuildPhase(from_step, to_step);
    });
  }
  AQP_RETURN_IF_ERROR(RunTasks(std::move(tasks), failed_shard));

  // Phase B: cross-shard approximate probes (only when some input
  // probes approximately; exact matches are intra-shard by radix
  // construction).
  const ProcessorState state = controller_.state();
  const bool any_approx = LeftMode(state) == join::ProbeMode::kApproximate ||
                          RightMode(state) == join::ProbeMode::kApproximate;
  if (!any_approx || shards_.size() <= 1) return Status::OK();
  tasks.clear();
  for (JoinShard* shard : shard_ptrs_) {
    auto* all = &shard_ptrs_;
    tasks.push_back([shard, all, from_step] {
      shard->RunCrossProbePhase(*all, from_step);
    });
  }
  return RunTasks(std::move(tasks), failed_shard);
}

void ParallelAdaptiveJoin::FlushObservables() {
  if (epoch_observables_.empty()) return;
  controller_.OnSteps(epoch_observables_);
  epoch_observables_.clear();
}

void ParallelAdaptiveJoin::TruncateAt(uint64_t step) {
  AbandonStagedIngest();
  // Roll the exchange's counters back past every routed step at or
  // after `step`, so progress, completeness, and ordinal bookkeeping
  // describe exactly the merged steps.
  const size_t keep = static_cast<size_t>(step - epoch_start_);
  uint64_t dropped[2] = {0, 0};
  for (size_t i = keep; i < route_.size(); ++i) {
    ++dropped[static_cast<size_t>(route_[i].side)];
  }
  exchange_->RollbackCounts(route_.size() - keep, dropped[0], dropped[1]);
  route_.resize(keep);
}

void ParallelAdaptiveJoin::FinishEarly(uint64_t step) {
  // Hard deadline: the steps from `step` on — the rest of the epoch,
  // and the staged next one — are input that was never due.
  TruncateAt(step);
  finalized_early_ = finalized_early_ ||
                     !exchange_->input_exhausted(exec::Side::kLeft) ||
                     !exchange_->input_exhausted(exec::Side::kRight);
  stream_done_ = true;
  UpdateMemoryAccounting();
}

Status ParallelAdaptiveJoin::HandleEpochFault(Status error, int32_t shard) {
  // Abandon the unmerged rest of the epoch (and the staged next one):
  // the scheduler position cannot be rewound, so no epoch may ever be
  // routed again — either terminal path below guarantees that.
  TruncateAt(epoch_start_ + merged_);

  Status annotated = error.WithContext(
      "epoch=" + std::to_string(epoch_) +
      (shard >= 0 ? "/shard=" + std::to_string(shard) : ""));
  if (options_.on_fault == FaultPolicy::kFinalizePartial &&
      RecoverableFaultCode(error)) {
    // Graceful degradation: the fault becomes a hard-deadline-style
    // early finalization. Buffered output (a strict prefix of the
    // fault-free run) stays deliverable; the FaultReport says what was
    // tolerated and where.
    FaultReport report;
    report.site = ExtractFaultSite(error);
    report.epoch = epoch_;
    report.step = exchange_->steps();
    report.shard = shard;
    report.status = std::move(annotated);
    fault_ = std::move(report);
    finalized_early_ = true;
    stream_done_ = true;
    UpdateMemoryAccounting();
    return Status::OK();
  }
  pump_error_ = std::move(annotated);
  return pump_error_;
}

void ParallelAdaptiveJoin::MaybeSubmitIngest() {
  if (ingest_inflight_) return;
  if (finalize_requested_ || stream_done_) return;
  if (exchange_->input_exhausted(exec::Side::kLeft) &&
      exchange_->input_exhausted(exec::Side::kRight)) {
    // The epoch just committed drained both inputs; there is nothing
    // left to stage (the next pump's coordinator RouteEpoch routes
    // zero steps and ends the stream).
    return;
  }
  staged_route_.clear();
  ingest_status_ = Status::OK();
  const uint64_t epoch_steps = NextEpochSteps();
  std::vector<std::function<void()>> tasks;
  tasks.push_back([this, epoch_steps] {
    // Ingest task body: pulls source batches through the exchange and
    // routes them into the staged tier. Touches only cursor counters
    // and staged buffers — nothing a phase worker or the coordinator
    // reads before the swap-point Wait().
    const auto stage_start = std::chrono::steady_clock::now();
    auto staged =
        exchange_->StageEpoch(epoch_steps, shard_ptrs_, &staged_route_);
    ingest_stats_.overlap_route_ns += ElapsedNs(stage_start);
    ingest_status_ = staged.ok() ? Status::OK() : staged.status();
    if (coord_node_ != nullptr) {
      // Publish this task's tier sizes so the coordinator's next
      // control-point charge can account the ingest side without
      // touching buffers this task owns.
      ingest_side_bytes_.store(IngestSideMemoryUsage(),
                               std::memory_order_relaxed);
    }
  });
  ingest_handle_ = active_pool_->Submit(std::move(tasks));
  ingest_inflight_ = true;
}

uint64_t ParallelAdaptiveJoin::NextEpochSteps() {
  // Called as an epoch is routed or its staging is submitted, after
  // the boundary control point of the epoch before it. Long epochs
  // need a merged epoch that made no transition.
  const bool settled =
      shards_.size() > 1 && epoch_ > 0 && !transition_since_staged_;
  transition_since_staged_ = false;
  return settled ? 2 * options_.unbounded_epoch_steps
                 : options_.unbounded_epoch_steps;
}

Status ParallelAdaptiveJoin::WaitIngest() {
  const auto wait_start = std::chrono::steady_clock::now();
  Status group = ingest_handle_.Wait();
  ingest_stats_.stall_ns += ElapsedNs(wait_start);
  ingest_inflight_ = false;
  ingest_handle_ = TaskGroupHandle();
  // A thrown task (pool-level containment) outranks the staged status
  // it never got to write.
  if (!group.ok()) return group;
  return ingest_status_;
}

void ParallelAdaptiveJoin::AbandonStagedIngest() {
  if (ingest_inflight_) {
    // The staging error, if any, is deliberately swallowed: a terminal
    // path is discarding the staged epoch, whose input was never due
    // (so it never faulted as far as any observer can tell).
    (void)ingest_handle_.Wait();
    ingest_inflight_ = false;
    ingest_handle_ = TaskGroupHandle();
  }
  if (exchange_ != nullptr) {
    exchange_->DiscardStaged(shard_ptrs_);
  }
  staged_route_.clear();
}

Status ParallelAdaptiveJoin::RefreshMemoryAccounting() {
  // Injected charge failure: a backing allocator refusing the
  // accounting charge. Degrades through HandleEpochFault like any
  // recoverable control-point fault.
  AQP_FAILPOINT(fail::site::kBudgetCharge);
  UpdateMemoryAccounting();
  return Status::OK();
}

void ParallelAdaptiveJoin::UpdateMemoryAccounting() {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Committed tiers only — the staged tier belongs to the ingest
    // task and is accounted through ingest_side_bytes_ while one is in
    // flight.
    const uint64_t bytes = shards_[i]->CommittedMemoryUsage();
    if (!shard_nodes_.empty()) shard_nodes_[i]->Refresh(bytes);
    total += bytes;
  }
  uint64_t coord = CoordinatorMemoryUsage();
  coord += ingest_inflight_
               ? ingest_side_bytes_.load(std::memory_order_relaxed)
               : IngestSideMemoryUsage();
  if (coord_node_ != nullptr) coord_node_->Refresh(coord);
  total += coord;
  memory_bytes_ = total;
  if (total > peak_memory_bytes_) peak_memory_bytes_ = total;
}

uint64_t ParallelAdaptiveJoin::IngestSideMemoryUsage() const {
  uint64_t bytes = exchange_ != nullptr ? exchange_->ApproximateMemoryUsage()
                                        : 0;
  for (const auto& shard : shards_) bytes += shard->StagedMemoryUsage();
  bytes += staged_route_.capacity() * sizeof(RouteEntry);
  return bytes;
}

uint64_t ParallelAdaptiveJoin::CoordinatorMemoryUsage() const {
  uint64_t bytes = route_.capacity() * sizeof(RouteEntry);
  bytes += out_buffer_.capacity() * sizeof(ParallelMatchRef);
  for (const storage::ColumnBatch& batch : ready_batches_) {
    bytes += batch.ApproximateMemoryUsage();
  }
  bytes += merge_scratch_.capacity() * sizeof(MergedMatch);
  bytes += epoch_observables_.capacity() * sizeof(join::StepObservables);
  for (size_t s = 0; s < 2; ++s) {
    bytes += matched_exactly_[s].capacity() * sizeof(uint8_t);
    bytes += matched_any_[s].capacity() * sizeof(uint8_t);
  }
  return bytes;
}

uint64_t ParallelAdaptiveJoin::ApproximateMemoryUsage() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->CommittedMemoryUsage();
  return total + CoordinatorMemoryUsage() + IngestSideMemoryUsage();
}

Status ParallelAdaptiveJoin::RunTasks(std::vector<std::function<void()>> tasks,
                                      int32_t* failed_task) {
  // One task group per phase; Wait()-participation keeps the
  // coordinator an execution lane, shared pool or not. A throwing task
  // is contained by the pool as the group's sticky error.
  TaskGroupHandle handle = active_pool_->Submit(std::move(tasks));
  Status status = handle.Wait();
  if (failed_task != nullptr) {
    *failed_task =
        status.ok() ? -1 : static_cast<int32_t>(handle.error_task());
  }
  return status;
}

Status ParallelAdaptiveJoin::MergeStep() {
  const size_t i = merged_;
  const uint64_t seq = epoch_start_ + i;
  const RouteEntry& entry = route_[i];
  JoinShard* shard = shard_ptrs_[entry.shard];
  const exec::Side read_side = entry.side;
  const exec::Side stored_side = exec::OtherSide(read_side);
  const size_t read_idx = static_cast<size_t>(read_side);
  const size_t stored_idx = static_cast<size_t>(stored_side);

  merge_scratch_.clear();

  // Intra-shard matches of this step (phase A). The shard must have
  // produced exactly one StepOutputs per routed row, in routing
  // order — a mismatch would silently misattribute matches to the
  // wrong global steps, so it is checked in every build type.
  if (merge_cursor_[entry.shard] >= shard->step_outputs().size()) {
    return Status::Internal(
        "parallel join merge: shard " + std::to_string(entry.shard) +
        " produced " + std::to_string(shard->step_outputs().size()) +
        " phase-A steps but the route expects more (global step " +
        std::to_string(seq) + ")");
  }
  const StepOutputs& step =
      shard->step_outputs()[merge_cursor_[entry.shard]++];
  if (step.seq != seq) {
    return Status::Internal(
        "parallel join merge: phase-A outputs out of order on shard " +
        std::to_string(entry.shard) + " (got step " +
        std::to_string(step.seq) + ", expected " + std::to_string(seq) +
        ")");
  }
  for (uint32_t m = step.begin; m < step.end; ++m) {
    const join::JoinMatch& match = shard->matches()[m];
    MergedMatch merged;
    merged.probe_side = read_side;
    merged.probe_ordinal = entry.ordinal;
    merged.stored_ordinal = shard->side_ordinal(stored_side, match.stored_id);
    merged.ref.similarity = match.similarity;
    merged.ref.kind = match.kind;
    if (read_side == exec::Side::kLeft) {
      merged.ref.left_shard = entry.shard;
      merged.ref.left_id = match.probe_id;
      merged.ref.right_shard = entry.shard;
      merged.ref.right_id = match.stored_id;
    } else {
      merged.ref.left_shard = entry.shard;
      merged.ref.left_id = match.stored_id;
      merged.ref.right_shard = entry.shard;
      merged.ref.right_id = match.probe_id;
    }
    merge_scratch_.push_back(merged);
  }

  // Cross-shard matches of this step (phase B), if any.
  const auto& cross_steps = shard->cross_step_outputs();
  size_t& cross_cursor = cross_cursor_[entry.shard];
  if (cross_cursor < cross_steps.size() &&
      cross_steps[cross_cursor].seq == seq) {
    const StepOutputs& cross = cross_steps[cross_cursor++];
    for (uint32_t m = cross.begin; m < cross.end; ++m) {
      const CrossMatch& cm = shard->cross_matches()[m];
      const JoinShard* stored_shard = shard_ptrs_[cm.stored_shard];
      MergedMatch merged;
      merged.probe_side = read_side;
      merged.probe_ordinal = entry.ordinal;
      merged.stored_ordinal =
          stored_shard->side_ordinal(stored_side, cm.match.stored_id);
      merged.ref.similarity = cm.match.similarity;
      merged.ref.kind = cm.match.kind;
      if (read_side == exec::Side::kLeft) {
        merged.ref.left_shard = entry.shard;
        merged.ref.left_id = cm.match.probe_id;
        merged.ref.right_shard = cm.stored_shard;
        merged.ref.right_id = cm.match.stored_id;
      } else {
        merged.ref.left_shard = cm.stored_shard;
        merged.ref.left_id = cm.match.stored_id;
        merged.ref.right_shard = entry.shard;
        merged.ref.right_id = cm.match.probe_id;
      }
      merge_scratch_.push_back(merged);
    }
  }

  // Deterministic shard merge order == single-threaded output order:
  // every probe appends its matches sorted by stored id, and stored
  // ids in the one-store engine are exactly the per-side ordinals.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergedMatch& a, const MergedMatch& b) {
              return a.stored_ordinal < b.stored_ordinal;
            });

  // Replay the step against the global flags, exactly as the
  // single-threaded core does: flag/counter updates for the whole
  // step first, attribution afterwards (§3.3 snapshots the flags at
  // the end of the step).
  for (const MergedMatch& merged : merge_scratch_) {
    if (merged.ref.kind == join::MatchKind::kExact) {
      matched_exactly_[read_idx][merged.probe_ordinal] = 1;
      matched_exactly_[stored_idx][merged.stored_ordinal] = 1;
      ++exact_pairs_;
    } else {
      ++approximate_pairs_;
    }
    if (!matched_any_[read_idx][merged.probe_ordinal]) {
      matched_any_[read_idx][merged.probe_ordinal] = 1;
      ++matched_any_count_[read_idx];
    }
    if (!matched_any_[stored_idx][merged.stored_ordinal]) {
      matched_any_[stored_idx][merged.stored_ordinal] = 1;
      ++matched_any_count_[stored_idx];
    }
    ++pairs_emitted_;
    out_buffer_.push_back(merged.ref);
  }

  join::StepObservables obs;
  for (const MergedMatch& merged : merge_scratch_) {
    if (merged.ref.kind != join::MatchKind::kApproximate) continue;
    join::AttributeApproxMatch(
        read_side,
        [&] { return matched_exactly_[stored_idx][merged.stored_ordinal]; },
        [&] { return matched_exactly_[read_idx][merged.probe_ordinal]; },
        &obs);
  }
  epoch_observables_.push_back(obs);
  ++merged_side_count_[read_idx];
  return Status::OK();
}

Status ParallelAdaptiveJoin::FillOutput(size_t min_refs) {
  // Carry the undelivered tail over: fewer refs than one batch when
  // NextColumnBatch asks, none when the other drive modes do.
  out_buffer_.erase(out_buffer_.begin(), out_buffer_.begin() + out_pos_);
  out_pos_ = 0;
  // An epoch cut short by a deadline or a fault still delivers the
  // output merged before the cut: the stream ends with it buffered.
  while (out_buffer_.size() < min_refs && !stream_done_) {
    AQP_RETURN_IF_ERROR(PumpEpoch());
  }
  return Status::OK();
}

void ParallelAdaptiveJoin::MaterializeRefInto(
    const ParallelMatchRef& ref, storage::ColumnBatch* out) const {
  shards_[ref.left_shard]->core().store(exec::Side::kLeft).AppendCellsTo(
      ref.left_id, out, 0);
  shards_[ref.right_shard]->core().store(exec::Side::kRight).AppendCellsTo(
      ref.right_id, out, left_width_);
  if (options_.base.join.emit_similarity) {
    out->AppendDouble(output_schema_.num_fields() - 1, ref.similarity);
  }
  out->CommitRow();
}

Status ParallelAdaptiveJoin::NextMatchRefs(size_t max_refs,
                                           std::vector<ParallelMatchRef>* out) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  out->clear();
  if (max_refs == 0) max_refs = 1;
  while (out->size() < max_refs) {
    if (out_pos_ >= out_buffer_.size()) {
      AQP_RETURN_IF_ERROR(FillOutput(1));
      if (out_buffer_.empty()) break;
    }
    const size_t take = std::min(max_refs - out->size(),
                                 out_buffer_.size() - out_pos_);
    out->insert(out->end(), out_buffer_.begin() + out_pos_,
                out_buffer_.begin() + out_pos_ + take);
    out_pos_ += take;
  }
  return Status::OK();
}

Status ParallelAdaptiveJoin::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  if (ready_pos_ < ready_batches_.size()) {
    std::swap(*out, ready_batches_[ready_pos_++]);
    return Status::OK();
  }
  out->Reset(&output_schema_);
  const size_t capacity = std::max<size_t>(1, out->capacity());
  // Refs are consumed only once their batches are built, so a failing
  // call delivers no rows and leaves them deliverable.
  AQP_RETURN_IF_ERROR(FillOutput(capacity));
  const size_t batches = std::max<size_t>(1, out_buffer_.size() / capacity);
  const auto build = [this, capacity, out](size_t first, size_t last) {
    for (size_t b = first; b < last; ++b) {
      storage::ColumnBatch* batch = b == 0 ? out : &ready_batches_[b - 1];
      const size_t begin = b * capacity;
      const size_t end = std::min(begin + capacity, out_buffer_.size());
      for (size_t i = begin; i < end; ++i) {
        MaterializeRefInto(out_buffer_[i], batch);
      }
    }
  };
  // Batch 0 is the caller's; the rest are queued in order.
  ready_batches_.resize(batches - 1);
  ready_pos_ = 0;
  for (storage::ColumnBatch& batch : ready_batches_) {
    batch.Reset(&output_schema_, capacity);
  }
  const size_t lanes = std::min(batches, shards_.size());
  if (lanes <= 1) {
    build(0, batches);
  } else {
    // The tasks read only the shard stores and out_buffer_; an
    // in-flight ingest task writes only the staged tiers and the
    // exchange.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(lanes);
    for (size_t lane = 0; lane < lanes; ++lane) {
      tasks.push_back([&build, batches, lanes, lane] {
        build(batches * lane / lanes, batches * (lane + 1) / lanes);
      });
    }
    Status built = RunTasks(std::move(tasks));
    if (!built.ok()) {
      out->Clear();
      ready_batches_.clear();
      return built;
    }
  }
  out_pos_ = std::min(batches * capacity, out_buffer_.size());
  return Status::OK();
}

Result<size_t> ParallelAdaptiveJoin::AdvanceUnmaterialized(size_t max_rows) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  if (max_rows == 0) max_rows = 1;
  if (out_pos_ >= out_buffer_.size()) {
    AQP_RETURN_IF_ERROR(FillOutput(1));
  }
  const size_t take = std::min(max_rows, out_buffer_.size() - out_pos_);
  out_pos_ += take;
  return take;
}

}  // namespace parallel
}  // namespace exec
}  // namespace aqp
