// Reproduces the §4.3 weight calibration: measures the elapsed time of
// one step in each processor state and of each transition kind on this
// machine, normalizes by the lex/rex step cost, and prints the w/v
// vectors next to the paper's published ones
// (w = [1, 22.14, 51.8, 70.2], v = [122.48, 37.96, 84.99, 173.42]).
//
// Absolute agreement is not expected — different hardware, allocator,
// and string lengths — but the ordering (AA >> EA > AE >> EE) and the
// orders of magnitude should reproduce.
//
// Runs use the served engine at one shard. A mean step is a pinned
// run's wall time over its steps, so it includes the engine's exchange
// routing, merge and delivery, not just the probe; a transition's time
// is its rollback and catch-up on the shard.
//
//   $ ./bench_weight_calibration [--atlas=8082] [--accidents=10000]

#include <iostream>

#include "bench_support.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"

int main(int argc, char** argv) {
  using namespace aqp;  // NOLINT
  const auto config = bench::PaperBenchConfig::FromArgs(argc, argv);
  auto options = config.MakeExperiment(
      datagen::PerturbationPattern::kUniform, /*perturb_parent=*/true);
  auto tc = datagen::GenerateTestCase(options.testcase);
  if (!tc.ok()) {
    std::cerr << tc.status() << "\n";
    return 1;
  }

  // Per-state unit step costs: one pinned run per state over the same
  // data (the paper averages per-step elapsed times per state).
  double mean_step_ns[adaptive::kNumProcessorStates] = {0, 0, 0, 0};
  for (adaptive::ProcessorState state : adaptive::kAllProcessorStates) {
    auto run = metrics::RunPolicy(*tc, options,
                                  adaptive::AdaptivePolicy::kPinned, state,
                                  nullptr);
    if (!run.ok()) {
      std::cerr << run.status() << "\n";
      return 1;
    }
    const size_t i = adaptive::StateIndex(state);
    mean_step_ns[i] = run->wall_seconds * 1e9 /
                      static_cast<double>(run->steps_per_state[i]);
    std::cerr << "  [" << adaptive::ProcessorStateCode(state)
              << "] pinned run done\n";
  }

  // Transition costs: a scripted run that cycles EE -> AE -> EA -> AA
  // -> EE ... so every transition kind occurs with realistic catch-up
  // lag, timed by the operator itself.
  exec::parallel::ParallelJoinOptions po =
      metrics::MakeJoinOptions(*tc, options);
  adaptive::AdaptiveJoinOptions& jo = po.base;
  jo.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  const adaptive::ProcessorState cycle[] = {
      adaptive::ProcessorState::kLapRex, adaptive::ProcessorState::kLexRap,
      adaptive::ProcessorState::kLapRap, adaptive::ProcessorState::kLexRex};
  const uint64_t total_steps = tc->child.size() + tc->parent.size();
  const uint64_t stride = std::max<uint64_t>(200, total_steps / 40);
  uint64_t transition_counts[adaptive::kNumProcessorStates] = {0, 0, 0, 0};
  for (uint64_t at = stride, i = 0; at + stride / 2 < total_steps;
       at += stride, ++i) {
    const adaptive::ProcessorState target = cycle[i % 4];
    jo.adaptive.script.push_back({at, target});
    ++transition_counts[adaptive::StateIndex(target)];
  }
  exec::RelationScan child(&tc->child);
  exec::RelationScan parent(&tc->parent);
  exec::parallel::ParallelAdaptiveJoin scripted(&child, &parent, po);
  if (auto count = exec::CountAll(&scripted); !count.ok()) {
    std::cerr << count.status() << "\n";
    return 1;
  }
  std::cerr << "  [transitions] scripted run done\n\n";

  const double ee_step =
      mean_step_ns[adaptive::StateIndex(adaptive::ProcessorState::kLexRex)];
  const adaptive::StateWeights paper = adaptive::StateWeights::Paper();

  TablePrinter table({"state", "mean step", "w (measured)", "w (paper)",
                      "mean transition", "v (measured)", "v (paper)"});
  adaptive::StateWeights measured;
  for (adaptive::ProcessorState state : adaptive::kAllProcessorStates) {
    const size_t i = adaptive::StateIndex(state);
    measured.step[i] = mean_step_ns[i] / ee_step;
    const double mean_transition_ns =
        transition_counts[i] > 0
            ? static_cast<double>(scripted.transition_time_ns(state)) /
                  static_cast<double>(transition_counts[i])
            : 0.0;
    measured.transition[i] = mean_transition_ns / ee_step;
    table.AddRow({adaptive::ProcessorStateName(state),
                  FormatDouble(mean_step_ns[i] / 1000.0, 2) + "us",
                  FormatDouble(measured.step[i], 2),
                  FormatDouble(paper.step[i], 2),
                  FormatDouble(mean_transition_ns / 1000.0, 1) + "us",
                  FormatDouble(measured.transition[i], 1),
                  FormatDouble(paper.transition[i], 1)});
  }
  std::cout << "Weight calibration (§4.3) on "
            << config.accidents_size << " accidents vs "
            << config.atlas_size << " atlas rows\n\n";
  table.Print(std::cout);
  std::cout << "\nmeasured weight vectors: " << measured.ToString()
            << "\npaper weight vectors:    " << paper.ToString() << "\n";
  return 0;
}
