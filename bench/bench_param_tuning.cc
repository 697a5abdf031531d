// Reproduces the §4.2 parameter tuning: an empirical exploration of the
// MAR threshold space on the few-high-intensity pattern (the case where
// adaptation pays off most visibly), reporting gain/cost/efficiency per
// setting. The paper's conclusions to compare against:
//
//   - best settings vary little across test cases;
//   - theta_sim = 0.85 brings the all-approximate result size close to
//     the expected size (completeness ~1);
//   - delta_adapt = 100 and W = 100 are adequate;
//   - the algorithm is insensitive to theta_out (0.05 is fine);
//   - theta_curpert and theta_pastpert visibly move the gain/cost ratio
//     (best: theta_curpert = 2, theta_pastpert in [2, 5]).
//
//   $ ./bench_param_tuning [--atlas=2021] [--accidents=4000]

#include <iostream>

#include "bench_support.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "metrics/experiment.h"

namespace {

using namespace aqp;  // NOLINT

struct SweepPoint {
  std::string value;
  metrics::ExperimentOptions options;
};

void RunSweep(const std::string& name, const std::vector<SweepPoint>& points,
              std::ostream& os) {
  TablePrinter table({name, "g_rel", "c_rel", "e", "switches",
                      "completeness", "EE share"});
  for (const SweepPoint& point : points) {
    auto result = metrics::RunExperiment(point.options);
    if (!result.ok()) {
      os << "sweep " << name << " failed: " << result.status() << "\n";
      return;
    }
    table.AddRow(
        {point.value, FormatDouble(result->weighted.RelativeGain(), 3),
         FormatDouble(result->weighted.RelativeCost(), 3),
         FormatDouble(result->weighted.Efficiency(), 2),
         std::to_string(result->adaptive.total_transitions),
         FormatDouble(result->adaptive_completeness, 3),
         FormatDouble(
             100.0 * result->adaptive.StepShare(
                         adaptive::ProcessorState::kLexRex),
             1) +
             "%"});
    std::cerr << "  [" << name << "=" << point.value << "] done\n";
  }
  os << "\nsweep: " << name << "\n";
  table.Print(os);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqp;  // NOLINT
  bench::PaperBenchConfig config = bench::PaperBenchConfig::FromArgs(argc,
                                                                     argv);
  // Tuning runs use a quarter-scale workload so the whole sweep matrix
  // stays fast; pass --atlas/--accidents to change.
  if (config.atlas_size == 8082) config.atlas_size = 2021;
  if (config.accidents_size == 10000) config.accidents_size = 4000;

  auto base = [&](datagen::PerturbationPattern pattern =
                      datagen::PerturbationPattern::kFewHighIntensityRegions) {
    return config.MakeExperiment(pattern, /*perturb_parent=*/false);
  };

  std::cout << "§4.2 parameter tuning — pattern few_high, "
            << config.accidents_size << " accidents vs "
            << config.atlas_size << " atlas rows\n";

  {
    std::vector<SweepPoint> points;
    for (double v : {0.70, 0.80, 0.85, 0.90, 0.95}) {
      SweepPoint p{FormatDouble(v, 2), base()};
      p.options.sim_threshold = v;
      points.push_back(std::move(p));
    }
    RunSweep("theta_sim", points, std::cout);
  }
  {
    std::vector<SweepPoint> points;
    for (uint64_t v : {25u, 50u, 100u, 200u, 400u}) {
      SweepPoint p{std::to_string(v), base()};
      p.options.adaptive.delta_adapt = v;
      points.push_back(std::move(p));
    }
    RunSweep("delta_adapt", points, std::cout);
  }
  {
    std::vector<SweepPoint> points;
    for (size_t v : {25u, 50u, 100u, 200u, 400u}) {
      SweepPoint p{std::to_string(v), base()};
      p.options.adaptive.window = v;
      points.push_back(std::move(p));
    }
    RunSweep("window_W", points, std::cout);
  }
  {
    std::vector<SweepPoint> points;
    for (double v : {0.01, 0.05, 0.10, 0.20}) {
      SweepPoint p{FormatDouble(v, 2), base()};
      p.options.adaptive.theta_out = v;
      points.push_back(std::move(p));
    }
    RunSweep("theta_out", points, std::cout);
  }
  {
    std::vector<SweepPoint> points;
    for (uint32_t v : {0u, 1u, 2u, 4u, 8u, 16u}) {
      SweepPoint p{std::to_string(v), base()};
      p.options.adaptive.theta_curpert = v;
      points.push_back(std::move(p));
    }
    RunSweep("theta_curpert", points, std::cout);
  }
  {
    std::vector<SweepPoint> points;
    for (uint32_t v : {1u, 2u, 5u, 10u, 1000u}) {
      SweepPoint p{std::to_string(v), base()};
      p.options.adaptive.theta_pastpert = v;
      points.push_back(std::move(p));
    }
    RunSweep("theta_pastpert", points, std::cout);
  }
  // Count- vs ratio-interpretation of theta_curpert (the paper's tuned
  // value 2 is read as a count by default; see AdaptiveOptions).
  {
    std::vector<SweepPoint> points;
    SweepPoint count{"count<=2", base()};
    count.options.adaptive.theta_curpert = 2;
    points.push_back(std::move(count));
    SweepPoint ratio{"ratio<=0.02", base()};
    ratio.options.adaptive.curpert_is_ratio = true;
    ratio.options.adaptive.theta_curpert_ratio = 0.02;
    points.push_back(std::move(ratio));
    RunSweep("curpert_interpretation", points, std::cout);
  }
  // Futility-revert extension on/off: on recoverable-variant workloads
  // it should be a near no-op (approximate matching *does* help here;
  // the extension only pays off on unrecoverable shortfalls — see
  // tests/adaptive/futility_revert_test.cc).
  {
    std::vector<SweepPoint> points;
    SweepPoint off{"off (paper)", base()};
    points.push_back(std::move(off));
    SweepPoint on{"on", base()};
    on.options.adaptive.enable_futility_revert = true;
    points.push_back(std::move(on));
    RunSweep("futility_revert", points, std::cout);
  }
  return 0;
}
