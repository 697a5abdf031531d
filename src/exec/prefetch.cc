#include "exec/prefetch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"

namespace aqp {
namespace exec {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

PrefetchSource::PrefetchSource(Operator* child, PrefetchOptions options)
    : child_(child), options_(options) {
  options_.depth = std::max<size_t>(1, options_.depth);
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
}

PrefetchSource::~PrefetchSource() { StopProducer(); }

Status PrefetchSource::Open() {
  if (open_) return Status::Internal("PrefetchSource: double Open");
  AQP_RETURN_IF_ERROR(child_->Open());
  OpenGuard child_guard(child_);
  current_ = storage::ColumnBatch();
  cursor_ = 0;
  eos_ = false;
  {
    sync::MutexLock lock(&mu_);
    queue_.clear();
    stats_ = PrefetchStats();
    StartProducerLocked();
  }
  child_guard.Dismiss();
  open_ = true;
  return Status::OK();
}

Status PrefetchSource::Close() {
  if (!open_) return Status::Internal("PrefetchSource: Close before Open");
  StopProducer();
  {
    sync::MutexLock lock(&mu_);
    queue_.clear();
  }
  current_ = storage::ColumnBatch();
  cursor_ = 0;
  open_ = false;
  return child_->Close();
}

PrefetchStats PrefetchSource::stats() const {
  sync::MutexLock lock(&mu_);
  return stats_;
}

uint64_t PrefetchSource::ApproximateMemoryUsage() {
  uint64_t bytes = 0;
  {
    sync::MutexLock lock(&mu_);
    bytes += queue_.size() * sizeof(Chunk);
    for (const Chunk& chunk : queue_) {
      bytes += chunk.batch.ApproximateMemoryUsage();
    }
  }
  bytes += current_.ApproximateMemoryUsage();
  return bytes;
}

void PrefetchSource::StartProducerLocked() {
  // The previous generation has exited (it cleared producer_running_
  // under mu_ on its way out); reclaim it before spawning.
  if (thread_.joinable()) thread_.join();
  producer_running_ = true;
  thread_ = std::thread(&PrefetchSource::ProducerLoop, this);
}

void PrefetchSource::StopProducer() {
  {
    sync::MutexLock lock(&mu_);
    stop_ = true;
    cv_space_.NotifyAll();
    cv_ready_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  {
    sync::MutexLock lock(&mu_);
    stop_ = false;
    producer_running_ = false;
  }
}

Status PrefetchSource::ProduceOne(storage::ColumnBatch* batch) {
  // Exceptions must not escape the producer thread; contain them to a
  // Status exactly as the thread pool does for phase tasks.
  try {
    AQP_FAILPOINT(fail::site::kIngestPrefetch);
    batch->Reset(&child_->output_schema(), options_.batch_size);
    Status status = child_->NextColumnBatch(batch);
    if (!status.ok()) batch->Clear();
    return status;
  } catch (const fail::InjectedFault& fault) {
    batch->Clear();
    return fault.status();
  } catch (const std::exception& e) {
    batch->Clear();
    return Status::Internal(std::string("prefetch refill threw: ") + e.what());
  }
}

void PrefetchSource::ProducerLoop() {
  for (;;) {
    {
      sync::MutexLock lock(&mu_);
      while (!stop_ && queue_.size() >= options_.depth) {
        cv_space_.Wait(mu_);
      }
      if (stop_) {
        producer_running_ = false;
        return;
      }
    }
    Chunk chunk;
    const auto refill_start = std::chrono::steady_clock::now();
    chunk.status = ProduceOne(&chunk.batch);
    const int64_t refill_ns = ElapsedNs(refill_start);
    const bool terminal = !chunk.status.ok() || chunk.batch.empty();
    {
      sync::MutexLock lock(&mu_);
      ++stats_.refills;
      stats_.producer_refill_ns += refill_ns;
      queue_.push_back(std::move(chunk));
      // Park after a terminal chunk: nothing past an error may be
      // pre-pulled (the consumer decides whether to retry), and
      // end-of-stream has nothing left to pull.
      if (terminal) producer_running_ = false;
      cv_ready_.NotifyOne();
    }
    if (terminal) return;
  }
}

Status PrefetchSource::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) {
    return Status::Internal("PrefetchSource: NextColumnBatch before Open");
  }
  out->Reset(&child_->output_schema());
  if (cursor_ >= current_.size()) {
    if (eos_) return Status::OK();  // sticky end-of-stream
    Chunk chunk;
    {
      sync::MutexLock lock(&mu_);
      // Lazy restart after a surfaced error (non-sticky: upstream
      // transient-retry loops re-enter here). A parked-at-terminal
      // producer still has its chunk queued, so the restart condition
      // can only trigger once that chunk has been consumed.
      if (queue_.empty() && !producer_running_) StartProducerLocked();
      if (!queue_.empty()) {
        ++stats_.served_without_wait;
      } else {
        ++stats_.consumer_waits;
        const auto wait_start = std::chrono::steady_clock::now();
        while (queue_.empty()) {
          cv_ready_.Wait(mu_);
        }
        stats_.consumer_wait_ns += ElapsedNs(wait_start);
      }
      chunk = std::move(queue_.front());
      queue_.pop_front();
      cv_space_.NotifyOne();
    }
    if (!chunk.status.ok()) return chunk.status;  // no rows delivered
    if (chunk.batch.empty()) {
      eos_ = true;
      return Status::OK();
    }
    current_ = std::move(chunk.batch);
    cursor_ = 0;
  }
  // Serve from exactly one buffered batch per call: at least one row
  // (cursor_ < size), never more than the consumer's capacity. Errors
  // therefore only ever surface on calls that deliver no rows.
  const size_t take = std::min(out->capacity(), current_.size() - cursor_);
  for (size_t i = 0; i < take; ++i) out->AppendRowFrom(current_, cursor_ + i);
  cursor_ += take;
  return Status::OK();
}

}  // namespace exec
}  // namespace aqp
