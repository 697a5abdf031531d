#ifndef AQP_METRICS_GAIN_COST_H_
#define AQP_METRICS_GAIN_COST_H_

#include <string>

namespace aqp {
namespace metrics {

/// \brief The paper's relative gain/cost metrics (§4.3).
///
/// Baselines: `r`/`c` are the result size and cost of the all-exact
/// run (best cost, least complete) and `R`/`C` those of the
/// all-approximate run (worst cost, most complete); `r_abs`/`c_abs`
/// belong to the evaluated (hybrid) run.
struct GainCost {
  double r = 0.0;
  double R = 0.0;
  double r_abs = 0.0;
  double c = 0.0;
  double C = 0.0;
  double c_abs = 0.0;

  /// g_rel = (r_abs - r) / (R - r): the fraction of the completeness
  /// gap recovered. When the gap is empty (R == r) there is nothing to
  /// recover and the gain is defined as 1.
  double RelativeGain() const;

  /// c_rel = c_abs / (C - c) — the paper's formula, which normalizes
  /// the *absolute* hybrid cost by the cost gap.
  double RelativeCost() const;

  /// (c_abs - c) / (C - c): the gap-normalized variant (0 = as cheap
  /// as all-exact, 1 = as expensive as all-approximate); reported
  /// alongside for interpretability, since RelativeCost() exceeds 1
  /// even for a run cheaper than all-approximate once c_abs > C - c.
  double RelativeCostGap() const;

  /// e = g_rel / c_rel, the efficiency index under each column of
  /// Fig. 6.
  double Efficiency() const;

  /// One-line summary for logs.
  std::string ToString() const;
};

}  // namespace metrics
}  // namespace aqp

#endif  // AQP_METRICS_GAIN_COST_H_
