// The paper's motivating mashup (§1): a nationwide car-accidents feed,
// collated from many insurers, is joined on-the-fly against a reference
// street atlas to place accidents on a map. Street names in the feed
// don't always match the atlas exactly, and the user prefers a fast,
// slightly incomplete map over a slow, complete one.
//
//   $ ./accidents_mashup --accidents=20000 --pattern=few_high --rate=0.1

#include <algorithm>
#include <iostream>
#include <map>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "exec/sink.h"

using namespace aqp;  // NOLINT — example brevity

namespace {

datagen::PerturbationPattern ParsePattern(const std::string& name) {
  for (datagen::PerturbationPattern p : datagen::kAllPatterns) {
    if (name == datagen::PerturbationPatternName(p)) return p;
  }
  std::cerr << "unknown pattern '" << name << "', using uniform\n";
  return datagen::PerturbationPattern::kUniform;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("atlas", 8082, "reference atlas size (paper: 8082)");
  flags.AddInt64("accidents", 20000, "accident feed size");
  flags.AddString("pattern", "few_high",
                  "perturbation pattern: uniform|low_intensity|few_high|"
                  "many_high");
  flags.AddDouble("rate", 0.10, "variant rate in the feed");
  flags.AddDouble("theta-sim", 0.85, "similarity threshold");
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddBool("show-trace", false, "print the adaptation timeline");
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n" << flags.Help();
    return 1;
  }

  // Build the scenario.
  datagen::TestCaseOptions tc_options;
  tc_options.pattern = ParsePattern(flags.GetString("pattern"));
  tc_options.variant_rate = flags.GetDouble("rate");
  tc_options.atlas.size = static_cast<size_t>(flags.GetInt64("atlas"));
  tc_options.accidents.size =
      static_cast<size_t>(flags.GetInt64("accidents"));
  tc_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto tc = datagen::GenerateTestCase(tc_options);
  if (!tc.ok()) {
    std::cerr << tc.status() << "\n";
    return 1;
  }
  std::cout << "Scenario: " << tc->child.size() << " accidents vs "
            << tc->parent.size() << " atlas entries, "
            << tc->ChildVariantCount() << " perturbed locations ("
            << tc_options.Label() << ")\n\n";

  // Run the adaptive join and both baselines, timing each.
  struct Outcome {
    std::string name;
    size_t matched = 0;
    double seconds = 0.0;
    double weighted_cost = 0.0;
  };
  std::vector<Outcome> outcomes;
  adaptive::AdaptationTrace trace;
  std::map<std::string, size_t> hotspots;

  for (const auto& [name, policy, pinned] :
       std::vector<std::tuple<std::string, adaptive::AdaptivePolicy,
                              adaptive::ProcessorState>>{
           {"all-exact (SHJoin)", adaptive::AdaptivePolicy::kPinned,
            adaptive::ProcessorState::kLexRex},
           {"adaptive (paper)", adaptive::AdaptivePolicy::kAdaptive,
            adaptive::ProcessorState::kLexRex},
           {"all-approx (SSHJoin)", adaptive::AdaptivePolicy::kPinned,
            adaptive::ProcessorState::kLapRap}}) {
    exec::RelationScan accidents(&tc->child);
    exec::RelationScan atlas(&tc->parent);
    exec::parallel::ParallelJoinOptions options;  // one shard per core
    adaptive::AdaptiveJoinOptions& jo = options.base;
    jo.join.spec.left_column = datagen::kAccidentsLocationColumn;
    jo.join.spec.right_column = datagen::kAtlasLocationColumn;
    jo.join.spec.sim_threshold = flags.GetDouble("theta-sim");
    jo.adaptive.parent_side = exec::Side::kRight;
    jo.adaptive.parent_table_size = tc->parent.size();
    jo.adaptive.policy = policy;
    jo.adaptive.initial_state = pinned;
    exec::parallel::ParallelAdaptiveJoin join(&accidents, &atlas, options);

    Timer timer;
    const bool is_adaptive = policy == adaptive::AdaptivePolicy::kAdaptive;
    auto drained = exec::Drain(&join, [&](const storage::Tuple& row) {
      if (is_adaptive) {
        // The "map overlay": bucket accidents per matched atlas entry.
        ++hotspots[row.at(4).AsString()];
      }
      return true;
    });
    if (!drained.ok()) {
      std::cerr << drained.status() << "\n";
      return 1;
    }
    Outcome outcome;
    outcome.name = name;
    outcome.matched = join.distinct_matched(exec::Side::kLeft);
    outcome.seconds = timer.ElapsedSeconds();
    outcome.weighted_cost =
        join.cost().TotalCostWith(adaptive::StateWeights::Paper());
    outcomes.push_back(outcome);
    if (is_adaptive) trace = join.trace();
  }

  TablePrinter table({"strategy", "accidents placed", "completeness",
                      "wall time", "weighted cost"});
  for (const Outcome& o : outcomes) {
    table.AddRow({o.name, FormatCount(o.matched),
                  FormatDouble(100.0 * static_cast<double>(o.matched) /
                                   static_cast<double>(tc->child.size()),
                               1) + "%",
                  FormatDouble(o.seconds, 3) + "s",
                  FormatCount(static_cast<uint64_t>(o.weighted_cost))});
  }
  table.Print(std::cout);

  std::cout << "\nTop accident hot spots (adaptive run):\n";
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const auto& [loc, n] : hotspots) ranked.emplace_back(n, loc);
  std::sort(ranked.rbegin(), ranked.rend());
  TablePrinter hot({"location", "accidents"});
  for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
    hot.AddRow({ranked[i].second, std::to_string(ranked[i].first)});
  }
  hot.Print(std::cout);

  std::cout << "\nOperator switches: " << trace.transition_count() << "\n";
  if (flags.GetBool("show-trace")) {
    std::cout << trace.ToString(40);
  }
  return 0;
}
