// In-memory span recorder of the traced run: one span per call the
// benchmark makes into a layer, written out as Chrome trace-event JSON
// (opens in ui.perfetto.dev) and summarized as per-layer self time.

#ifndef AQP_BENCH_LINKAGE_SPANS_H_
#define AQP_BENCH_LINKAGE_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/linkage/support.h"
#include "common/status.h"

namespace aqp {
namespace linkbench {

/// Parent index of a root span.
inline constexpr int64_t kNoParent = -1;

/// \brief Spans kept in memory until the run ends.
///
/// Only the coordinating thread calls the recorder; work measured on
/// pool workers is timed into per-task slots and added after the
/// barrier with Add().
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span on the calling thread's lane and returns its index.
  int64_t Begin(const char* name, int64_t parent, uint64_t query);
  /// Closes span `index` now.
  void End(int64_t index);
  /// Records a finished span.
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t query, int lane);

  /// Small dense id of the calling thread (0 = the first caller).
  static int CurrentLane();

  /// Writes every span as Chrome trace-event JSON ("X" events).
  Status WriteChromeTrace(const std::string& path) const;
  /// Prints, per span name, the count, total time, and self time (span
  /// time minus the part of it that child spans cover).
  void PrintSelfTimes(FILE* out) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent;
    uint64_t query;
    int lane;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// \brief Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent,
             uint64_t query)
      : recorder_(recorder), index_(recorder->Begin(name, parent, query)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

}  // namespace linkbench
}  // namespace aqp

#endif  // AQP_BENCH_LINKAGE_SPANS_H_
