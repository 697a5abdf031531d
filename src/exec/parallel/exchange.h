#ifndef AQP_EXEC_PARALLEL_EXCHANGE_H_
#define AQP_EXEC_PARALLEL_EXCHANGE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "exec/interleave.h"
#include "exec/operator.h"
#include "exec/parallel/shard.h"
#include "join/join_types.h"

namespace aqp {
namespace exec {
namespace parallel {

/// \brief Bounded retry of transient source failures during ingest.
///
/// A refill that fails with StatusCode::kUnavailable (a flaky remote
/// source, a transient read error) is re-attempted up to `max_retries`
/// times with deterministic exponential backoff before the error is
/// surfaced; any other code fails immediately. Retries are counted
/// (RadixExchange::source_retries) and surfaced in run/query stats.
struct SourceRetryOptions {
  /// Re-attempts per failed refill. 0 disables retrying.
  size_t max_retries = 0;
  /// Attempt k (1-based) sleeps base * 2^(k-1) before retrying; zero
  /// base never sleeps (deterministic tests).
  std::chrono::milliseconds backoff_base{0};
};

/// \brief One routed step of an epoch, in global step order. The
/// tuple's global sequence is implicit: epoch start + position.
struct RouteEntry {
  uint32_t shard = 0;
  exec::Side side = exec::Side::kLeft;
  /// Per-side global ordinal (the id the tuple would have received in
  /// the single-threaded engine's store — the key of the coordinator's
  /// matched-flag bitsets).
  uint32_t ordinal = 0;
  /// Shard-local store id.
  storage::TupleId local_id = 0;
};

/// \brief The radix exchange: replays the single-threaded engine's
/// input schedule and routes each row to a shard by join-key hash.
///
/// Determinism is the whole point. The exchange pulls columnar batches
/// from the two children through the same InterleaveScheduler and the
/// same buffered refill protocol as the test oracle's
/// SymmetricJoin::PullNextInput (tests/support/), so the global step
/// sequence — which side was read at step t, and when end-of-stream was
/// discovered — is identical to the single-threaded run. The shard of a
/// row is a pure function of its join key (mixed FNV-1a hash modulo
/// shard count), which is what makes every exact match intra-shard. Routing *scatters column slices*: each row's
/// cells are appended to the target shard's per-side staged
/// ColumnBatch, together with the key hash from the batch's hash lane
/// (computed once per refill, cached by the shard's TupleStore, never
/// re-hashed) — no Tuple object moves through the exchange.
class RadixExchange {
 public:
  /// Children are borrowed and must outlive the exchange. `spec`
  /// supplies the per-side join-key columns.
  RadixExchange(exec::Operator* left, exec::Operator* right,
                const join::JoinSpec& spec, exec::InterleavePolicy policy,
                uint64_t left_hint, uint64_t right_hint, size_t batch_size,
                size_t num_shards, SourceRetryOptions retry = {});

  /// Resets the read state (called from the operator's Open; the
  /// children themselves are opened by the caller).
  void Reset();

  /// Routes up to `max_steps` rows and publishes them at once: stages
  /// the epoch, then CommitStaged on success or DiscardStaged on error
  /// (so a failed call leaves nothing routed). Appends one RouteEntry
  /// per step to `*route` (not cleared). Returns the number of steps
  /// routed; fewer than `max_steps` only at end-of-stream. For callers
  /// with nothing staged in flight.
  Result<uint64_t> RouteEpoch(uint64_t max_steps,
                              const std::vector<JoinShard*>& shards,
                              std::vector<RouteEntry>* route);

  /// \name Route-ahead (pipelined ingest).
  ///
  /// The counters the rest of the engine observes — steps(),
  /// side_count(), input_exhausted() — are *published* state: they
  /// advance only when an epoch commits. The routing loop itself walks
  /// a private cursor, so an ingest task can stage the next epoch
  /// (StageEpoch, run concurrently with phase execution) without the
  /// governor, Progress(), or the adaptation trace observing rows not
  /// yet due. At the barrier swap the coordinator either CommitStaged
  /// (cursor becomes published, shard staged tiers commit) or
  /// DiscardStaged (cursor rewinds to published, shard staged tiers
  /// drop).
  /// @{
  /// Scatters up to `max_steps` rows into the shards' staged tiers and
  /// leaves published counters untouched. Runs on the ingest task;
  /// never concurrently with RouteEpoch or the commit/discard calls.
  Result<uint64_t> StageEpoch(uint64_t max_steps,
                              const std::vector<JoinShard*>& shards,
                              std::vector<RouteEntry>* route);

  /// Epoch-barrier swap: publishes the cursor counters and commits
  /// every shard's staged tier.
  void CommitStaged(const std::vector<JoinShard*>& shards);

  /// Drops a staged (never published) epoch: rewinds the cursor to
  /// the published counters and clears every shard's staged tier. The
  /// scheduler position is NOT rewound — as with RollbackCounts, the
  /// exchange is unusable for further routing afterwards.
  void DiscardStaged(const std::vector<JoinShard*>& shards);
  /// @}

  /// Global steps routed so far (published).
  uint64_t steps() const { return pub_steps_; }

  /// Rolls the step/side counters back past the last `steps` committed
  /// steps (an epoch, or the suffix of one, that was aborted or cut
  /// before its merge), including any end-of-stream discovered at or
  /// after the new step count. The scheduler position is NOT rewound —
  /// the exchange is unusable afterwards; callers must stop routing
  /// (the parallel join ends the stream or enters a sticky error).
  void RollbackCounts(uint64_t steps, uint64_t left_rows,
                      uint64_t right_rows) {
    steps_ -= steps;
    side_count_[0] -= left_rows;
    side_count_[1] -= right_rows;
    pub_steps_ -= steps;
    pub_side_count_[0] -= left_rows;
    pub_side_count_[1] -= right_rows;
    for (size_t i = 0; i < 2; ++i) {
      if (pub_done_[i] && pub_done_step_[i] >= pub_steps_) {
        pub_done_[i] = done_[i] = false;
      }
    }
  }

  /// Tuples routed so far from `side` (published).
  uint64_t side_count(exec::Side side) const {
    return pub_side_count_[static_cast<size_t>(side)];
  }

  /// True once `side`'s child reported end-of-stream (discovered at
  /// the same step index as the single-threaded engine would;
  /// published — EOS found while staging becomes visible at commit).
  bool input_exhausted(exec::Side side) const {
    return pub_done_[static_cast<size_t>(side)];
  }

  /// True iff `side`'s end-of-stream was discovered before global step
  /// `step` was routed: what a run whose epochs all end at `step` would
  /// report as input_exhausted() there (published state only).
  bool exhausted_before(exec::Side side, uint64_t step) const {
    const size_t i = static_cast<size_t>(side);
    return pub_done_[i] && pub_done_step_[i] < step;
  }

  /// Transient refill failures retried away so far (see
  /// SourceRetryOptions).
  uint64_t source_retries() const { return source_retries_; }

  /// Allocated footprint of the exchange's own buffers: the two
  /// per-side refill batches (capacity-based, so recycled batches keep
  /// reporting their retained arenas). Must be called from whichever
  /// context owns the routing cursor — the ingest task while staging,
  /// the coordinator otherwise.
  uint64_t ApproximateMemoryUsage() const {
    return input_batch_[0].ApproximateMemoryUsage() +
           input_batch_[1].ApproximateMemoryUsage();
  }

 private:
  /// Mirrors SymmetricJoin::RefillInput, wrapped in the transient
  /// retry loop.
  Status Refill(exec::Side side);
  /// One refill attempt.
  Status RefillOnce(exec::Side side);
  /// The routing loop behind RouteEpoch and StageEpoch: advances the
  /// cursor and scatters into the shards' staged tiers.
  Result<uint64_t> RouteLoop(uint64_t max_steps,
                             const std::vector<JoinShard*>& shards,
                             std::vector<RouteEntry>* route);
  /// Cursor -> published.
  void Publish() {
    pub_steps_ = steps_;
    for (size_t i = 0; i < 2; ++i) {
      pub_side_count_[i] = side_count_[i];
      pub_done_[i] = done_[i];
      pub_done_step_[i] = done_step_[i];
    }
  }

  exec::Operator* inputs_[2];
  join::JoinSpec spec_;
  exec::InterleavePolicy policy_;
  uint64_t hints_[2];
  size_t batch_size_;
  size_t num_shards_;
  SourceRetryOptions retry_;
  uint64_t source_retries_ = 0;

  exec::InterleaveScheduler scheduler_;
  storage::ColumnBatch input_batch_[2];
  size_t input_pos_[2] = {0, 0};
  /// Routing cursor: advanced by the routing loop. done_step_ is the
  /// step count at which the side's end-of-stream was discovered.
  bool done_[2] = {false, false};
  uint64_t done_step_[2] = {0, 0};
  uint64_t steps_ = 0;
  uint64_t side_count_[2] = {0, 0};
  /// Published at epoch commit; what accessors expose.
  bool pub_done_[2] = {false, false};
  uint64_t pub_done_step_[2] = {0, 0};
  uint64_t pub_steps_ = 0;
  uint64_t pub_side_count_[2] = {0, 0};
};

}  // namespace parallel
}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PARALLEL_EXCHANGE_H_
