#include "join/symmetric_join.h"

#include <algorithm>

#include "common/macros.h"

namespace aqp {
namespace join {

SymmetricJoin::SymmetricJoin(exec::Operator* left, exec::Operator* right,
                             SymmetricJoinOptions options,
                             ProbeMode initial_left_mode,
                             ProbeMode initial_right_mode, std::string name)
    : left_(left),
      right_(right),
      options_(std::move(options)),
      name_(std::move(name)),
      core_(options_.spec, options_.approx),
      scheduler_(options_.interleave, options_.left_size_hint,
                 options_.right_size_hint),
      output_schema_() {
  if (options_.batch_size == 0) options_.batch_size = 1;
  core_.SetProbeModes(initial_left_mode, initial_right_mode);
}

Status SymmetricJoin::Open() {
  if (opened_) {
    return Status::FailedPrecondition(name_ + " is single-use: already opened");
  }
  AQP_RETURN_IF_ERROR(options_.spec.ValidateAgainstSchemas(
      left_->output_schema(), right_->output_schema()));
  AQP_RETURN_IF_ERROR(left_->Open());
  exec::OpenGuard left_guard(left_);
  AQP_RETURN_IF_ERROR(right_->Open());
  exec::OpenGuard right_guard(right_);
  output_schema_ = JoinOutputSchema(left_->output_schema(),
                                    right_->output_schema(),
                                    options_.emit_similarity);
  left_width_ = left_->output_schema().num_fields();
  left_guard.Dismiss();
  right_guard.Dismiss();
  opened_ = true;
  open_ = true;
  core_.ReserveStores(options_.left_size_hint, options_.right_size_hint);
  for (size_t i = 0; i < 2; ++i) {
    input_batch_[i].Reset(nullptr, options_.batch_size);
  }
  return Status::OK();
}

void SymmetricJoin::MaterializeInto(const MatchBatch& matches,
                                    storage::ColumnBatch* out) const {
  const storage::TupleStore& left = core_.store(exec::Side::kLeft);
  const storage::TupleStore& right = core_.store(exec::Side::kRight);
  for (const MatchRef& ref : matches) {
    left.AppendCellsTo(ref.left_id(), out, 0);
    right.AppendCellsTo(ref.right_id(), out, left_width_);
    if (options_.emit_similarity) {
      out->AppendDouble(output_schema_.num_fields() - 1, ref.similarity);
    }
    out->CommitRow();
  }
}

Status SymmetricJoin::RefillInput(exec::Side side) {
  const size_t i = static_cast<size_t>(side);
  exec::Operator* input = side == exec::Side::kLeft ? left_ : right_;
  input_batch_[i].Reset(&input->output_schema(), options_.batch_size);
  input_pos_[i] = 0;
  Status status = input->NextColumnBatch(&input_batch_[i]);
  if (status.ok() && !input_batch_[i].empty()) {
    // One vectorized hash pass per refill: every step reads its key
    // hash from the lane, and the store caches it without re-hashing.
    input_batch_[i].ComputeKeyHashes(options_.spec.column(side));
  }
  return status;
}

Result<bool> SymmetricJoin::PullNextInput(exec::Side* side, size_t* row) {
  while (true) {
    auto next_side = scheduler_.NextSide(left_done_, right_done_);
    if (!next_side.has_value()) return false;
    const size_t i = static_cast<size_t>(*next_side);
    if (input_pos_[i] >= input_batch_[i].size()) {
      AQP_RETURN_IF_ERROR(RefillInput(*next_side));
      if (input_batch_[i].empty()) {
        // The child's empty batch is end-of-stream, discovered at the
        // same read index as under tuple-at-a-time execution (the
        // buffer drains exactly when the old path would have read the
        // tuple after the last).
        if (*next_side == exec::Side::kLeft) {
          left_done_ = true;
        } else {
          right_done_ = true;
        }
        continue;
      }
    }
    *side = *next_side;
    *row = input_pos_[i]++;
    return true;
  }
}

Result<bool> SymmetricJoin::StepOnce(MatchBatch* out) {
  exec::Side side = exec::Side::kLeft;
  size_t row = 0;
  auto pulled = PullNextInput(&side, &row);
  if (!pulled.ok()) return pulled.status();
  if (!*pulled) return false;
  scheduler_.OnRead(side);
  match_scratch_.clear();
  core_.ProcessRowInto(side, input_batch_[static_cast<size_t>(side)], row,
                       &match_scratch_);
  ++steps_;
  // §3.3 attribution snapshots the matched-exactly flags now; by the
  // end of the batch later steps will have mutated them.
  batch_stats_.steps.push_back(
      core_.AttributeApproxMatches(side, match_scratch_));
  for (const JoinMatch& m : match_scratch_) {
    if (!out->full()) {
      out->Append(m);
    } else {
      pending_.push_back(m);
    }
  }
  return true;
}

Status SymmetricJoin::RunStepBatch(MatchBatch* out, uint64_t max_steps,
                                   bool* exhausted) {
  batch_stats_.steps.clear();
  uint64_t executed = 0;
  while (executed < max_steps) {
    if (out->full()) break;
    auto stepped = StepOnce(out);
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) {
      *exhausted = true;
      break;
    }
    ++executed;
  }
  if (executed > 0) OnBatchCompleted(batch_stats_);
  return Status::OK();
}

Status SymmetricJoin::NextMatchBatch(MatchBatch* out) {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  out->Clear();
  // Refs spilled by a previous over-producing step go out first. If
  // the call fails they go back to the front of pending_: the caller
  // discards a failed batch, so they must stay deliverable.
  size_t drained = 0;
  while (!pending_.empty() && !out->full()) {
    out->Append(pending_.front());
    pending_.pop_front();
    ++drained;
  }
  bool exhausted = false;
  while (!out->full() && !exhausted) {
    // Batch boundary: quiescent by construction.
    Status status = OnQuiescentPoint();
    if (status.ok()) {
      // Round the batch edge to the subclass's next control point, so
      // the control loop activates at the same step counts as under
      // tuple-at-a-time execution regardless of batch_size.
      const uint64_t bound = StepsUntilControlPoint();
      const uint64_t max_steps =
          std::min<uint64_t>(bound, options_.batch_size);
      status = RunStepBatch(out, std::max<uint64_t>(1, max_steps),
                            &exhausted);
    }
    if (!status.ok()) {
      pending_.insert(pending_.begin(), out->begin(),
                      out->begin() + static_cast<ptrdiff_t>(drained));
      out->Clear();
      return status;
    }
  }
  return Status::OK();
}

Result<size_t> SymmetricJoin::AdvanceUnmaterialized(size_t max_rows) {
  adapter_batch_.Reset(max_rows == 0 ? 1 : max_rows);
  AQP_RETURN_IF_ERROR(NextMatchBatch(&adapter_batch_));
  return adapter_batch_.size();
}

// Columnar delivery: output columns are written straight from the
// stores — no row payload is ever constructed.
Status SymmetricJoin::NextColumnBatch(storage::ColumnBatch* out) {
  out->Reset(&output_schema_);
  adapter_batch_.Reset(out->capacity());
  AQP_RETURN_IF_ERROR(NextMatchBatch(&adapter_batch_));
  MaterializeInto(adapter_batch_, out);
  return Status::OK();
}

Status SymmetricJoin::Close() {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  open_ = false;
  AQP_RETURN_IF_ERROR(left_->Close());
  AQP_RETURN_IF_ERROR(right_->Close());
  return Status::OK();
}

}  // namespace join
}  // namespace aqp
