#ifndef AQP_COMMON_MEMORY_BUDGET_H_
#define AQP_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace aqp {
namespace mem {

/// \brief Per-node byte limits. Zero disables a bound.
///
/// Semantics (enforced by the service's ResourceGovernor, not by the
/// tree itself — the tree is pure accounting):
///   * past `soft_bytes` a query is clamped toward the cheapest exact
///     state, freezing q-gram index growth (memory joins time as a
///     governed axis of the paper's completeness trade-off);
///   * past `hard_bytes` a query is finalized early through the
///     kFinalizePartial path, with a strict-prefix partial result.
struct BudgetLimits {
  uint64_t soft_bytes = 0;
  uint64_t hard_bytes = 0;

  bool any() const { return soft_bytes > 0 || hard_bytes > 0; }
};

/// \brief One node of the hierarchical memory-accounting tree
/// (global → per-query → per-shard).
///
/// Each node owns a *local* usage figure — replaced wholesale by
/// Refresh(), never incrementally charged — plus a *subtree* aggregate
/// that includes every descendant's local usage. A refresh propagates
/// its signed delta up the ancestor chain with one fetch_add per
/// level, updating each ancestor's peak high-water along the way, so
/// reading any node's used()/peak() is one relaxed load with no
/// locking and no tree walk.
///
/// Refreshes are driven from the cheap quiescent points the engine
/// already owns: control points (coordinator refreshes its
/// query's shard nodes from ApproximateMemoryUsage()) and ingest batch
/// refills (the staging task reports the staged tier it just filled).
/// The figures are therefore bounded-stale between control points —
/// accounting, not malloc interception.
///
/// Thread contract: Refresh() may be called on different nodes of the
/// same tree concurrently (every running query refreshes its own
/// nodes; all of them propagate into the shared root). Refreshing the
/// *same* node concurrently is allowed but pointless — last write
/// wins; the subtree totals stay consistent either way because deltas
/// are applied atomically.
///
/// Lifetime contract: a child must be destroyed before its parent.
/// Destruction refreshes the node to zero first, so a finished
/// query's usage leaves the global root automatically — the
/// budget-counter-leak invariant the chaos harness asserts is simply
/// root.used() == 0 at quiescence.
class BudgetNode {
 public:
  explicit BudgetNode(std::string name, BudgetNode* parent = nullptr,
                      BudgetLimits limits = {});
  ~BudgetNode();

  BudgetNode(const BudgetNode&) = delete;
  BudgetNode& operator=(const BudgetNode&) = delete;

  /// Replaces this node's local usage with `bytes` and propagates the
  /// delta (and peak updates) up the ancestor chain.
  void Refresh(uint64_t bytes);

  /// This node's own usage (excluding descendants).
  uint64_t local_used() const {
    return Clamp(local_.load(std::memory_order_relaxed));
  }
  /// Usage of this node plus every descendant.
  uint64_t used() const {
    return Clamp(subtree_.load(std::memory_order_relaxed));
  }
  /// High-water mark of used() since construction.
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  bool over_soft() const {
    return limits_.soft_bytes > 0 && used() >= limits_.soft_bytes;
  }
  bool over_hard() const {
    return limits_.hard_bytes > 0 && used() >= limits_.hard_bytes;
  }

  const BudgetLimits& limits() const { return limits_; }
  const std::string& name() const { return name_; }
  BudgetNode* parent() const { return parent_; }

 private:
  static uint64_t Clamp(int64_t v) {
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }

  std::string name_;
  BudgetNode* parent_;
  BudgetLimits limits_;
  /// Signed so a racing pair of refreshes can transiently undershoot
  /// zero without wrapping; accessors clamp.
  std::atomic<int64_t> local_{0};
  std::atomic<int64_t> subtree_{0};
  std::atomic<uint64_t> peak_{0};
};

}  // namespace mem
}  // namespace aqp

#endif  // AQP_COMMON_MEMORY_BUDGET_H_
