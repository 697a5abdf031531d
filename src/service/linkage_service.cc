#include "service/linkage_service.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace aqp {
namespace service {

using exec::parallel::EpochDirective;
using exec::parallel::EpochView;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, hw);
}

size_t ResolveShards(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<unsigned>(hw == 0 ? 1 : hw, 64));
}

}  // namespace

LinkageService::LinkageService(ServiceOptions options)
    : options_(options),
      pool_(ResolveWorkers(options.worker_threads)),
      admission_(options.admission),
      governor_(options.governor) {
  const size_t runners = options.admission.max_concurrent_queries;
  runners_.reserve(runners);
  for (size_t i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
  if (options_.governor.watchdog_enabled()) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

LinkageService::~LinkageService() {
  {
    sync::MutexLock lock(&mu_);
    shutdown_ = true;
    // Queued queries never run; running ones see the cancel flag at
    // their next control point.
    for (auto& [id, q] : queries_) {
      if (!IsTerminalState(q->state)) {
        q->cancel_requested.store(true, std::memory_order_relaxed);
        if (q->state == QueryState::kQueued) {
          q->state = QueryState::kCancelled;
          q->final_status = Status::Cancelled("service shut down");
          q->stats.state = q->state;
          q->stats.status = q->final_status;
        }
      }
    }
    queue_.clear();
  }
  state_changed_.NotifyAll();
  for (std::thread& runner : runners_) {
    runner.join();
  }
  if (monitor_.joinable()) {
    monitor_.join();
  }
}

Result<QueryId> LinkageService::Submit(exec::Operator* left,
                                       exec::Operator* right,
                                       QueryOptions options) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument(
        "LinkageService::Submit: null child operator");
  }
  // Admission-boundary fault: a rejected submission must leave no
  // trace in the registry or the budget.
  AQP_FAILPOINT(fail::site::kServiceAdmit);
  auto record = std::make_unique<QueryRecord>();
  record->options = std::move(options);
  record->left = left;
  record->right = right;
  // Effective budget and stall tolerance: the query's own values, the
  // service defaults where unset.
  record->memory = governor_.EffectiveBudget(record->options.memory);
  record->stall_timeout = record->options.stall_timeout.count() > 0
                              ? record->options.stall_timeout
                              : options_.governor.stall_timeout;

  sync::MutexLock lock(&mu_);
  if (shutdown_) {
    return Status::FailedPrecondition(
        "LinkageService::Submit: service is shutting down");
  }
  // Global high-water: shed new work while the aggregate footprint of
  // running queries is at or above the line. Shedding (rather than
  // queueing) keeps the overload visible to the caller immediately.
  if (!admission_.MemoryCanAdmit(governor_.used())) {
    admission_.RecordMemoryShed();
    return Status::ResourceExhausted(
               "LinkageService::Submit: global memory high-water reached")
        .WithContext(std::string("site=") + resource_site::kGlobalHighWater);
  }
  // Resolve and clamp the shard budget up front: admission accounting
  // needs the real number, and shard count never changes results.
  record->shards = admission_.ClampShards(
      ResolveShards(record->options.join.num_shards));
  record->options.join.num_shards = record->shards;
  const QueryId id = next_id_++;
  record->id = id;
  record->stats.shards = record->shards;
  queries_.emplace(id, std::move(record));
  queue_.push_back(id);
  state_changed_.NotifyAll();
  return id;
}

Status LinkageService::Cancel(QueryId id) {
  sync::MutexLock lock(&mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("LinkageService::Cancel: unknown query " +
                            std::to_string(id));
  }
  QueryRecord* q = it->second.get();
  if (IsTerminalState(q->state)) return Status::OK();
  q->cancel_requested.store(true, std::memory_order_relaxed);
  if (q->state == QueryState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                 queue_.end());
    q->state = QueryState::kCancelled;
    q->final_status = Status::Cancelled("cancelled while queued");
    q->stats.state = q->state;
    q->stats.status = q->final_status;
    state_changed_.NotifyAll();
  }
  // A running query tears down at its next control point, via
  // the governor — between epochs every shard is quiescent, so no
  // phase task of this query is left behind on the pool. The notify
  // also cuts a retry backoff sleep short, so cancellation is prompt
  // even mid-backoff.
  state_changed_.NotifyAll();
  return Status::OK();
}

Result<QueryStats> LinkageService::Wait(QueryId id) {
  sync::MutexLock lock(&mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("LinkageService::Wait: unknown query " +
                            std::to_string(id));
  }
  QueryRecord* q = it->second.get();
  while (!IsTerminalState(q->state)) {
    state_changed_.Wait(mu_);
  }
  return q->stats;
}

Result<storage::Relation> LinkageService::TakeResult(QueryId id) {
  sync::MutexLock lock(&mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("LinkageService::TakeResult: unknown query " +
                            std::to_string(id));
  }
  QueryRecord* q = it->second.get();
  while (!IsTerminalState(q->state)) {
    state_changed_.Wait(mu_);
  }
  if (q->state != QueryState::kDone) {
    return q->final_status.ok()
               ? Status::FailedPrecondition("query did not complete")
               : q->final_status;
  }
  if (q->result_taken || !q->result.has_value()) {
    return Status::FailedPrecondition(
        "LinkageService::TakeResult: result already taken for query " +
        std::to_string(id));
  }
  q->result_taken = true;
  storage::Relation out = std::move(*q->result);
  q->result.reset();
  return out;
}

Result<QueryState> LinkageService::state(QueryId id) const {
  sync::MutexLock lock(&mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("LinkageService::state: unknown query " +
                            std::to_string(id));
  }
  return it->second->state;
}

size_t LinkageService::running_queries() const {
  sync::MutexLock lock(&mu_);
  return admission_.running_queries();
}

size_t LinkageService::queued_queries() const {
  sync::MutexLock lock(&mu_);
  return queue_.size();
}

size_t LinkageService::peak_running_queries() const {
  sync::MutexLock lock(&mu_);
  return admission_.peak_running_queries();
}

size_t LinkageService::peak_shards_in_use() const {
  sync::MutexLock lock(&mu_);
  return admission_.peak_shards_in_use();
}

size_t LinkageService::shards_in_use() const {
  sync::MutexLock lock(&mu_);
  return admission_.shards_in_use();
}

size_t LinkageService::admitted_total() const {
  sync::MutexLock lock(&mu_);
  return admission_.admitted_total();
}

size_t LinkageService::released_total() const {
  sync::MutexLock lock(&mu_);
  return admission_.released_total();
}

size_t LinkageService::memory_shed_total() const {
  sync::MutexLock lock(&mu_);
  return admission_.memory_shed_total();
}

size_t LinkageService::watchdog_finalized_total() const {
  sync::MutexLock lock(&mu_);
  return watchdog_finalized_total_;
}

size_t LinkageService::pressure_finalized_total() const {
  sync::MutexLock lock(&mu_);
  return pressure_finalized_total_;
}

LinkageService::QueryRecord* LinkageService::FrontRunnableLocked() {
  // Strict FIFO: only the front of the queue is considered. Skipping
  // ahead when the front's shard budget does not fit would let narrow
  // queries starve a wide one forever.
  if (queue_.empty()) return nullptr;
  // Global memory pressure also holds the front back (the line clears
  // when a running query finishes and drops its budget subtree, which
  // notifies state_changed_).
  if (!admission_.MemoryCanAdmit(governor_.used())) return nullptr;
  QueryRecord* q = queries_.at(queue_.front()).get();
  return admission_.CanAdmit(q->shards) ? q : nullptr;
}

void LinkageService::RunnerLoop() {
  mu_.Lock();
  while (true) {
    while (!shutdown_ && FrontRunnableLocked() == nullptr) {
      state_changed_.Wait(mu_);
    }
    QueryRecord* q = FrontRunnableLocked();
    if (q == nullptr) {
      if (shutdown_) {
        mu_.Unlock();
        return;
      }
      continue;
    }
    queue_.pop_front();
    admission_.Admit(q->shards);
    q->state = QueryState::kRunning;
    q->started = std::chrono::steady_clock::now();
    // Hang the query under the global budget tree when anything will
    // read it: its own budget, the admission high-water, or pressure
    // reclaim. Ungoverned queries skip the whole accounting path.
    if (q->memory.any() ||
        admission_.options().global_memory_high_water_bytes > 0 ||
        options_.governor.finalize_youngest_on_pressure) {
      q->budget_node = governor_.MakeQueryNode(q->id);
    }
    state_changed_.NotifyAll();
    mu_.Unlock();
    // Finish() releases the admission slot atomically with the
    // terminal state transition, so a Wait()er never observes a done
    // query still holding budget.
    ExecuteQuery(q);
    mu_.Lock();
  }
}

void LinkageService::StampHeartbeat(QueryRecord* q) {
  q->heartbeat_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

EpochDirective LinkageService::Govern(QueryRecord* q, const EpochView& view) {
  StampHeartbeat(q);
  // Deterministic stall probe (`watchdog.stall`): hold this control
  // point — heartbeat deliberately stale — until the watchdog notices
  // and force-finalizes, or the query is cancelled. Only evaluated for
  // queries with a stall tolerance, so the site is inert in generic
  // chaos bursts that arm every known site. Holding is only safe while
  // a monitor thread exists to notice the stale heartbeat.
  if (q->stall_timeout.count() > 0 && options_.governor.watchdog_enabled() &&
      fail::AnyArmed()) {
    bool stalled = false;
    try {
      stalled = !fail::Check(fail::site::kWatchdogStall).ok();
    } catch (const fail::InjectedFault&) {
      stalled = true;
    }
    while (stalled && !q->force_finalize.load(std::memory_order_relaxed) &&
           !q->cancel_requested.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (q->cancel_requested.load(std::memory_order_relaxed)) {
    return EpochDirective::kCancel;
  }
  if (q->force_finalize.load(std::memory_order_relaxed)) {
    return EpochDirective::kFinalize;
  }
  const DeadlineOptions& d = q->options.deadline;
  const auto elapsed = std::chrono::steady_clock::now() - q->started;
  const bool past_hard =
      (d.hard_deadline_steps > 0 && view.steps >= d.hard_deadline_steps) ||
      (d.hard_deadline.count() > 0 && elapsed >= d.hard_deadline);
  if (past_hard) return EpochDirective::kFinalize;
  if (q->memory.any()) {
    // Budget charge: the engine refreshed the accounting tree right
    // before this hook, so view.memory_bytes is this control point's
    // footprint. Growth since the previous charge feeds the predictive
    // hard bound — finalize *before* the next epoch would overshoot.
    const uint64_t used = view.memory_bytes;
    const uint64_t growth =
        used > q->prev_charge_bytes ? used - q->prev_charge_bytes : 0;
    q->prev_charge_bytes = used;
    q->max_growth_bytes = std::max(q->max_growth_bytes, growth);
    // Forecast the next epoch's allocation as 2x the largest jump seen:
    // the stores grow by capacity doubling, and a container that
    // doubled before adds exactly twice that when it doubles again.
    // The first charge deliberately counts the whole upfront footprint
    // as one jump, so a hard budget under 3x the first-control-point
    // floor finalizes right there. That is aggressive for queries that
    // would have stayed flat, but it is what keeps the recorded peak
    // at or under the budget when the next control point is far away
    // (or never comes): a query can blow through its whole remaining
    // headroom in the very first epoch after the baseline, and a
    // delta-only forecast would not see it coming.
    switch (ResourceGovernor::Charge(used, 2 * q->max_growth_bytes,
                                     q->memory)) {
      case ResourceDecision::kFinalizePartial: {
        sync::MutexLock lock(&mu_);
        if (!q->resource.has_value()) {
          ResourceReport report;
          report.peak_bytes =
              q->budget_node != nullptr ? q->budget_node->peak() : used;
          report.budget_bytes = q->memory.hard_bytes;
          report.site = resource_site::kQueryHardBudget;
          report.status =
              Status::ResourceExhausted("per-query hard memory budget reached")
                  .WithContext(std::string("site=") +
                               resource_site::kQueryHardBudget);
          q->resource = std::move(report);
        }
        return EpochDirective::kFinalize;
      }
      case ResourceDecision::kClampExact:
        q->memory_clamped = true;  // runner-thread-owned while running
        q->forced_exact = true;
        return EpochDirective::kForceExactOnly;
      case ResourceDecision::kProceed:
        break;
    }
  }
  const bool past_soft =
      (d.soft_deadline_steps > 0 && view.steps >= d.soft_deadline_steps) ||
      (d.soft_deadline.count() > 0 && elapsed >= d.soft_deadline);
  if (past_soft) {
    q->forced_exact = true;  // runner-thread-owned while running
    return EpochDirective::kForceExactOnly;
  }
  return EpochDirective::kProceed;
}

void LinkageService::MonitorLoop() {
  mu_.Lock();
  while (!shutdown_) {
    state_changed_.WaitFor(mu_, options_.governor.poll_interval);
    if (shutdown_) break;
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    for (auto& [id, q] : queries_) {
      if (q->state != QueryState::kRunning &&
          q->state != QueryState::kDraining) {
        continue;
      }
      if (q->stall_timeout.count() <= 0) continue;
      // Between attempts the runner sleeps in retry backoff with the
      // heartbeat parked at the failed attempt's last control point —
      // idle by design, not stalled.
      if (q->backing_off) continue;
      const int64_t heartbeat = q->heartbeat_ns.load(std::memory_order_relaxed);
      if (heartbeat == 0) continue;  // not yet started pumping
      if (now_ns - heartbeat < q->stall_timeout.count()) continue;
      // Stalled: the runner has not reached a control point or drain
      // iteration within the tolerance. Force-finalize — the engine
      // delivers the strict-prefix partial it has merged so far. A
      // worker stuck *inside* a phase cannot be preempted; the
      // directive lands at the next quiescent boundary.
      if (q->force_finalize.exchange(true, std::memory_order_relaxed)) {
        continue;  // already told; don't double-count
      }
      if (!q->resource.has_value()) {
        ResourceReport report;
        report.peak_bytes =
            q->budget_node != nullptr ? q->budget_node->peak() : 0;
        report.budget_bytes = 0;
        report.site = resource_site::kWatchdogStall;
        report.status =
            Status::Unavailable("watchdog force-finalized a stalled query")
                .WithContext(std::string("site=") +
                             resource_site::kWatchdogStall);
        q->resource = std::move(report);
      }
      ++watchdog_finalized_total_;
    }
    if (options_.governor.finalize_youngest_on_pressure &&
        !admission_.MemoryCanAdmit(governor_.used())) {
      // Reclaim the *youngest* governed query: a greedy late arrival
      // gives back its memory instead of evicting older neighbors.
      // Draining queries are exempt — they already stopped consuming
      // input, so flagging them frees nothing sooner. Backing-off
      // queries likewise: the failed attempt's engine is already torn
      // down, so their footprint is gone.
      QueryRecord* youngest = nullptr;
      for (auto& [id, q] : queries_) {  // ascending id; last match wins
        if (q->state == QueryState::kRunning && !q->backing_off &&
            q->budget_node != nullptr &&
            !q->force_finalize.load(std::memory_order_relaxed)) {
          youngest = q.get();
        }
      }
      if (youngest != nullptr) {
        youngest->force_finalize.store(true, std::memory_order_relaxed);
        if (!youngest->resource.has_value()) {
          ResourceReport report;
          report.peak_bytes = youngest->budget_node->peak();
          report.budget_bytes =
              admission_.options().global_memory_high_water_bytes;
          report.site = resource_site::kGlobalHighWater;
          report.status = Status::ResourceExhausted(
                              "global memory pressure reclaimed the "
                              "youngest running query")
                              .WithContext(std::string("site=") +
                                           resource_site::kGlobalHighWater);
          youngest->resource = std::move(report);
        }
        ++pressure_finalized_total_;
      }
    }
  }
  mu_.Unlock();
}

void LinkageService::SetState(QueryRecord* q, QueryState state) {
  sync::MutexLock lock(&mu_);
  q->state = state;
  state_changed_.NotifyAll();
}

void LinkageService::Finish(QueryRecord* q, QueryState state, Status status) {
  if (!status.ok()) {
    // Breadcrumb: every terminal error leaving the service names its
    // query, stacking under any epoch=/shard=/site= context below it.
    status = status.WithContext("query=" + std::to_string(q->id));
  }
  QueryStats stats;
  stats.state = state;
  stats.status = status;
  stats.shards = q->shards;
  stats.forced_exact = q->forced_exact;
  if (q->join != nullptr) {
    stats.steps = q->join->steps();
    stats.pairs_emitted = q->join->pairs_emitted();
    stats.finalized_early = q->join->finalized_early();
    stats.completeness = q->join->Completeness();
    stats.final_state = q->join->state();
    stats.source_retries = q->join->source_retries();
    stats.ingest = q->join->ingest_stats();
    stats.fault = q->join->fault();
    stats.memory_bytes = q->join->memory_bytes();
    stats.peak_memory_bytes =
        std::max(q->join->peak_memory_bytes(), stats.memory_bytes);
    // The join's shard stores hold every ingested input row; a
    // long-lived service must not retain them past the query's end
    // (the result is already materialized, the stats just harvested).
    q->join.reset();
  }
  stats.elapsed = std::chrono::steady_clock::now() - q->started;
  sync::MutexLock lock(&mu_);
  // The engine's shard/coordinator nodes (children) died with the
  // join; dropping the query node releases this query's footprint
  // from the global aggregate. It must happen under mu_ — the monitor
  // dereferences budget_node for running queries while holding mu_,
  // and the query is still kRunning/kDraining here — and before the
  // notify below, which may clear the high-water for queued work.
  q->budget_node.reset();
  q->heartbeat_ns.store(0, std::memory_order_relaxed);
  stats.memory_clamped = q->memory_clamped;
  stats.attempts = std::max<uint64_t>(1, q->attempts);
  stats.retries = stats.attempts - 1;
  stats.resource = q->resource;
  q->stats = stats;
  q->state = state;
  q->final_status = std::move(status);
  // The freed slot (and shard budget) may unblock the next queued
  // query on another runner; the same notify wakes Wait()ers.
  admission_.Release(q->shards);
  state_changed_.NotifyAll();
}

LinkageService::AttemptOutcome LinkageService::RunAttempt(QueryRecord* q) {
  ParallelJoinOptions join_options = q->options.join;
  join_options.shared_pool = &pool_;
  // Null for ungoverned queries — the engine then skips refreshes and
  // stays byte-identical to a budget-free run. Reading the raw pointer
  // lock-free is safe on the runner thread: budget_node is only
  // written by this thread (admission in RunnerLoop, release in
  // Finish).
  join_options.memory_budget = q->budget_node.get();
  join_options.governor = [this, q](const EpochView& view) {
    return Govern(q, view);
  };
  q->join = std::make_unique<ParallelAdaptiveJoin>(q->left, q->right,
                                                   std::move(join_options));

  AttemptOutcome outcome;
  StampHeartbeat(q);
  Status status = q->join->Open();
  if (!status.ok()) {
    outcome.state = QueryState::kFailed;
    outcome.status = std::move(status);
    return outcome;
  }

  // The result is columnar: each drained batch moves into it whole, so
  // no row is built on the served path. The batch borrows the engine's
  // schema only until the relation re-points it at its own.
  storage::Relation collected(q->join->output_schema());
  storage::ColumnBatch batch(&q->join->output_schema(),
                             std::max<size_t>(1, q->options.drain_batch));
  bool draining_reported = false;
  while (true) {
    // Liveness: the watchdog must not fire on a healthy query that is
    // slowly delivering a huge buffered result.
    StampHeartbeat(q);
    // The governor only runs while epochs are still being pumped; once
    // the input side is done (draining), cancellation must be honored
    // here or a huge buffered result would pin the admission slot.
    if (q->cancel_requested.load(std::memory_order_relaxed)) {
      status = Status::Cancelled("query cancelled while draining");
      break;
    }
    status = q->join->NextColumnBatch(&batch);
    if (!status.ok() || batch.empty()) break;
    // The next pull re-stamps the moved-from batch.
    collected.AppendBatch(std::move(batch));
    if (!draining_reported && q->join->stream_done()) {
      // Input side finished (exhausted or deadline-finalized); what
      // remains is delivering buffered output.
      draining_reported = true;
      SetState(q, QueryState::kDraining);
    }
  }

  if (status.ok()) {
    // Finalization-boundary fault: the result is fully drained but the
    // query fails terminal bookkeeping — the budget must still be
    // released exactly once and the error must stick to this query.
    const auto finalize_site = []() -> Status {
      AQP_FAILPOINT(fail::site::kServiceFinalize);
      return Status::OK();
    };
    status = finalize_site();
  }

  Status close = q->join->Close();
  if (!status.ok()) {
    outcome.state = status.IsCancelled() ? QueryState::kCancelled
                                         : QueryState::kFailed;
    outcome.status = std::move(status);
    return outcome;
  }
  if (!close.ok()) {
    outcome.state = QueryState::kFailed;
    outcome.status = std::move(close);
    return outcome;
  }
  outcome.state = QueryState::kDone;
  outcome.collected.emplace(std::move(collected));
  return outcome;
}

void LinkageService::ExecuteQuery(QueryRecord* q) {
  const size_t max_retries = q->options.retry.max_retries;
  size_t attempt = 0;
  while (true) {
    ++attempt;
    {
      sync::MutexLock lock(&mu_);
      q->attempts = attempt;
    }
    AttemptOutcome outcome = RunAttempt(q);
    // Only recoverably failed attempts retry: transient unavailability
    // or I/O, never cancellation, invariant failures, or precondition
    // bugs — and a degraded-to-partial query is done, not failed.
    const bool retryable =
        outcome.state == QueryState::kFailed &&
        (outcome.status.IsUnavailable() || outcome.status.IsIOError()) &&
        attempt <= max_retries &&
        !q->cancel_requested.load(std::memory_order_relaxed);
    if (!retryable) {
      {
        sync::MutexLock lock(&mu_);
        if (outcome.state == QueryState::kDone) {
          q->result.emplace(std::move(*outcome.collected));
        } else {
          q->result.reset();
        }
      }
      Finish(q, outcome.state, std::move(outcome.status));
      return;
    }
    // Re-execution is idempotent: queries are read-only over borrowed,
    // re-openable children. Drop the failed attempt's engine, keep the
    // admission slot (the query never left `running`), and back off.
    // The deadline clock spans attempts — q->started is NOT reset — so
    // retrying cannot stretch the time budget; forced_exact and any
    // ResourceReport stay sticky for the final stats.
    q->join.reset();
    q->prev_charge_bytes = 0;
    q->max_growth_bytes = 0;
    {
      sync::MutexLock lock(&mu_);
      if (q->state == QueryState::kDraining) {
        q->state = QueryState::kRunning;
        state_changed_.NotifyAll();
      }
      const auto base = q->options.retry.backoff_base;
      if (base.count() > 0) {
        // Exponential backoff, interruptible by Cancel() and shutdown.
        // The exponent is clamped: max_retries is caller-controlled,
        // and an unclamped shift would overflow the chrono arithmetic
        // (and hit UB at 63) long before that many attempts matter.
        const unsigned shift =
            static_cast<unsigned>(std::min<size_t>(attempt - 1, 20));
        const auto delay = base * (int64_t{1} << shift);
        // The heartbeat is idle during the sleep, not stalled; the
        // flag (guarded by mu_, like the watchdog's scan) keeps the
        // monitor from force-finalizing a healthy retrying query whose
        // backoff outlasts its stall tolerance.
        q->backing_off = true;
        const auto deadline = std::chrono::steady_clock::now() + delay;
        while (!shutdown_ &&
               !q->cancel_requested.load(std::memory_order_relaxed)) {
          if (!state_changed_.WaitUntil(mu_, deadline)) break;
        }
        // Restamp before clearing the flag, still under mu_, so the
        // stall clock restarts at backoff exit rather than at the
        // failed attempt's last control point — no window where the
        // monitor sees an un-flagged query with a pre-sleep heartbeat.
        StampHeartbeat(q);
        q->backing_off = false;
      }
    }
    if (q->cancel_requested.load(std::memory_order_relaxed)) {
      Finish(q, QueryState::kCancelled,
             Status::Cancelled("query cancelled during retry backoff"));
      return;
    }
  }
}

}  // namespace service
}  // namespace aqp
