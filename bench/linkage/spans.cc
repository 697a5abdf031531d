#include "bench/linkage/spans.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

namespace aqp {
namespace linkbench {

namespace {

int64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

int SpanRecorder::CurrentLane() {
  static std::atomic<int> next_lane{0};
  thread_local const int lane = next_lane.fetch_add(1);
  return lane;
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent,
                            uint64_t query) {
  const Clock::time_point now = Clock::now();
  return Add(name, now, now, parent, query, CurrentLane());
}

void SpanRecorder::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
}

int64_t SpanRecorder::Add(const char* name, Clock::time_point start,
                          Clock::time_point end, int64_t parent,
                          uint64_t query, int lane) {
  spans_.push_back(Span{name, start, end, parent, query, lane});
  return static_cast<int64_t>(spans_.size()) - 1;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IOError("cannot open trace output " + path);
  }
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name : "";
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"query\": %llu, \"parent\": \"%s\"}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(Nanos(origin_, s.start)) / 1e3,
                 static_cast<double>(Nanos(s.start, s.end)) / 1e3, s.lane,
                 static_cast<unsigned long long>(s.query), parent);
  }
  std::fprintf(out, "]}\n");
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    return Status::IOError("cannot write trace output " + path);
  }
  return Status::OK();
}

void SpanRecorder::PrintSelfTimes(FILE* out) const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t begin = Nanos(origin_, s.start);
    const int64_t end = Nanos(origin_, s.end);
    // Children on parallel lanes overlap: subtract their union, clipped
    // to the parent's interval.
    covered.clear();
    for (size_t c : children[i]) {
      const int64_t cb = std::max(begin, Nanos(origin_, spans_[c].start));
      const int64_t ce = std::min(end, Nanos(origin_, spans_[c].end));
      if (ce > cb) covered.emplace_back(cb, ce);
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = begin;
    for (const auto& [cb, ce] : covered) {
      const int64_t from = std::max(cb, reach);
      if (ce > from) child_ns += ce - from;
      reach = std::max(reach, ce);
    }
    Totals& totals = by_name[s.name];
    ++totals.count;
    totals.total_ns += end - begin;
    totals.self_ns += (end - begin) - child_ns;
  }
  std::vector<std::pair<std::string, Totals>> rows(by_name.begin(),
                                                   by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::fprintf(out, "\n== layer self time (%zu spans)\n", spans_.size());
  std::fprintf(out, "  %-28s %10s %14s %14s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, totals] : rows) {
    std::fprintf(out, "  %-28s %10llu %14.3f %14.3f\n", name.c_str(),
                 static_cast<unsigned long long>(totals.count),
                 static_cast<double>(totals.total_ns) / 1e6,
                 static_cast<double>(totals.self_ns) / 1e6);
  }
}

}  // namespace linkbench
}  // namespace aqp
