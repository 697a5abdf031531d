#include <gtest/gtest.h>

#include "adaptive/mar.h"
#include "join/hybrid_core.h"

namespace aqp {
namespace adaptive {
namespace {

using exec::Side;
using join::HybridJoinCore;
using join::JoinMatch;
using join::JoinSpec;
using join::MatchKind;
using join::ProbeMode;
using storage::Tuple;
using storage::Value;

AdaptiveOptions SmallWindow() {
  AdaptiveOptions o;
  o.window = 4;
  o.parent_side = Side::kRight;
  o.parent_table_size = 100;
  return o;
}

/// Feeds one step: its matches attributed against the core's current
/// matched-exactly flags, then handed to the monitor as a batch.
void OnStep(Monitor* monitor, Side read_side,
            const std::vector<JoinMatch>& matches,
            const HybridJoinCore& core, ProcessorState state) {
  monitor->OnBatch({core.AttributeApproxMatches(read_side, matches)}, state);
}

JoinMatch Approx(Side probe_side, storage::TupleId probe,
                 storage::TupleId stored) {
  JoinMatch m;
  m.probe_side = probe_side;
  m.probe_id = probe;
  m.stored_id = stored;
  m.similarity = 0.9;
  m.kind = MatchKind::kApproximate;
  return m;
}

TEST(MonitorTest, CountsSteps) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLexRex);
  OnStep(&monitor, Side::kRight, {}, core, ProcessorState::kLexRex);
  EXPECT_EQ(monitor.steps(), 2u);
}

TEST(MonitorTest, BlamesReaderWhenStoredTupleWasExactlyMatched) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  // Stored left tuple 0 has matched exactly before.
  core.ProcessTuple(Side::kLeft, Tuple{Value("K")});
  core.ProcessTuple(Side::kRight, Tuple{Value("K")});  // sets exact flags
  // A right-read tuple approx-matches stored left tuple 0: blame right.
  OnStep(&monitor, Side::kRight, {Approx(Side::kRight, 5, 0)}, core,
         ProcessorState::kLapRap);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 1u);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kLeft), 0u);
}

TEST(MonitorTest, BlamesStoredSideWhenProbeWasExactlyMatched) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("VARIANTx")});  // never matched
  core.ProcessTuple(Side::kRight, Tuple{Value("CLEAN")});
  core.ProcessTuple(Side::kLeft, Tuple{Value("CLEAN")});  // right 0 flagged
  // Right tuple 0 (exactly matched) approx-matches stored left 0.
  OnStep(&monitor, Side::kRight, {Approx(Side::kRight, 0, 0)}, core,
         ProcessorState::kLapRap);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kLeft), 1u);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 0u);
}

TEST(MonitorTest, BlamesBothWithoutEvidence) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  OnStep(&monitor, Side::kRight, {Approx(Side::kRight, 0, 0)}, core,
         ProcessorState::kLapRap);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kLeft), 1u);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 1u);
}

TEST(MonitorTest, WindowRetiresOldSteps) {
  AdaptiveOptions o = SmallWindow();  // W = 4
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  OnStep(&monitor, Side::kRight, {Approx(Side::kRight, 0, 0)}, core,
         ProcessorState::kLapRap);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 1u);
  for (int i = 0; i < 4; ++i) {
    OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLapRap);
  }
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 0u);
}

TEST(MonitorTest, ExactMatchesNotCounted) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("K")});
  JoinMatch exact;
  exact.probe_side = Side::kRight;
  exact.kind = MatchKind::kExact;
  OnStep(&monitor, Side::kRight, {exact}, core, ProcessorState::kLexRex);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kLeft), 0u);
  EXPECT_EQ(monitor.WindowApproxMatches(Side::kRight), 0u);
}

TEST(MonitorTest, ApproxActiveTracksState) {
  AdaptiveOptions o = SmallWindow();
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLexRex);
  EXPECT_EQ(monitor.WindowApproxActiveSteps(), 0u);
  OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLapRex);
  OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLapRap);
  EXPECT_EQ(monitor.WindowApproxActiveSteps(), 2u);
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
