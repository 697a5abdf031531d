// HybridJoinCore::RollbackTo is what lets the parallel engine redo the
// rest of an epoch after a state transition inside it: rolling a core
// back to a prefix of its input must leave it indistinguishable from a
// core that only ever processed that prefix — same stores, same index
// contents and watermarks, same catch-up count at the next switch, and
// the same matches when the rest of the input is processed again.

#include "join/hybrid_core.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "text/qgram.h"

namespace aqp {
namespace join {
namespace {

using exec::Side;
using storage::Tuple;
using storage::Value;

struct Event {
  Side side = Side::kLeft;
  Tuple tuple;
};

/// A deterministic two-sided stream: repeated keys (exact chains),
/// one-letter variants (approximate matches), an empty key, and
/// string/int payload columns.
std::vector<Event> Stream(size_t n) {
  const std::vector<std::string> places = {
      "SANTA CRISTINA VALGARDENA", "ORTISEI", "SELVA DI VAL GARDENA",
      "CASTELROTTO", "BRESSANONE", "BOLZANO", "MERANO", "BRUNICO",
      "VIPITENO", "CHIUSA", "LAION", "FUNES", "VELTURNO", "BARBIANO"};
  std::vector<Event> events;
  uint64_t state = 12345;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 33;
    Event e;
    e.side = (r & 1) ? Side::kLeft : Side::kRight;
    std::string key = places[(r >> 1) % places.size()];
    // Numbered localities: hundreds of distinct keys, so the exact
    // index rehashes several times and its probe runs cluster.
    if ((r >> 14) % 2 == 0) key += " " + std::to_string((r >> 16) % 61);
    if ((r >> 5) % 5 == 0) key[(r >> 8) % key.size()] = 'X';  // variant
    if ((r >> 11) % 37 == 0) key.clear();
    e.tuple = Tuple{Value(key), Value(static_cast<int64_t>(i)),
                    Value("payload-" + std::to_string(r % 1000))};
    events.push_back(std::move(e));
  }
  return events;
}

JoinSpec Spec() {
  JoinSpec spec;
  spec.sim_threshold = 0.8;
  return spec;
}

std::vector<JoinMatch> Feed(HybridJoinCore* core,
                            const std::vector<Event>& events, size_t begin,
                            size_t end) {
  std::vector<JoinMatch> out;
  for (size_t i = begin; i < end; ++i) {
    core->ProcessTupleInto(events[i].side, events[i].tuple, &out);
  }
  return out;
}

size_t CountSide(const std::vector<Event>& events, size_t end, Side side) {
  size_t n = 0;
  for (size_t i = 0; i < end; ++i) n += events[i].side == side ? 1 : 0;
  return n;
}

std::vector<storage::TupleId> PostingIds(const QGramIndex& index,
                                         text::GramKey gram) {
  const auto* postings = index.Postings(gram);
  return postings == nullptr ? std::vector<storage::TupleId>{} : *postings;
}

void ExpectSameCore(const HybridJoinCore& actual,
                    const HybridJoinCore& expected,
                    const std::vector<Event>& events) {
  std::set<std::string> keys;
  std::set<text::GramKey> grams;
  for (const Event& e : events) {
    const std::string& key = e.tuple[0].AsString();
    keys.insert(key);
    const text::GramSet set = text::GramSet::Of(key, expected.spec().qgram);
    grams.insert(set.grams().begin(), set.grams().end());
  }
  for (Side side : {Side::kLeft, Side::kRight}) {
    SCOPED_TRACE(side == Side::kLeft ? "left" : "right");
    const storage::TupleStore& a = actual.store(side);
    const storage::TupleStore& b = expected.store(side);
    ASSERT_EQ(a.size(), b.size());
    for (storage::TupleId id = 0; id < b.size(); ++id) {
      ASSERT_EQ(a.JoinKey(id), b.JoinKey(id)) << "tuple " << id;
      ASSERT_EQ(a.KeyHash(id), b.KeyHash(id)) << "tuple " << id;
      ASSERT_EQ(a.GetTuple(id), b.GetTuple(id)) << "tuple " << id;
    }

    const ExactIndex& ea = actual.exact_index(side);
    const ExactIndex& eb = expected.exact_index(side);
    EXPECT_EQ(ea.watermark(), eb.watermark());
    EXPECT_EQ(ea.distinct_keys(), eb.distinct_keys());
    for (const std::string& key : keys) {
      EXPECT_EQ(ea.Lookup(key), eb.Lookup(key)) << "key '" << key << "'";
    }

    const QGramIndex& qa = actual.qgram_index(side);
    const QGramIndex& qb = expected.qgram_index(side);
    EXPECT_EQ(qa.watermark(), qb.watermark());
    EXPECT_EQ(qa.distinct_grams(), qb.distinct_grams());
    EXPECT_EQ(qa.empty_gram_tuples(), qb.empty_gram_tuples());
    EXPECT_EQ(qa.AveragePostingLength(), qb.AveragePostingLength());
    for (text::GramKey gram : grams) {
      EXPECT_EQ(qa.Frequency(gram), qb.Frequency(gram));
      EXPECT_EQ(PostingIds(qa, gram), PostingIds(qb, gram));
    }
  }
}

void ExpectSameMatches(const std::vector<JoinMatch>& actual,
                       const std::vector<JoinMatch>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].probe_side, expected[i].probe_side) << "match " << i;
    EXPECT_EQ(actual[i].probe_id, expected[i].probe_id) << "match " << i;
    EXPECT_EQ(actual[i].stored_id, expected[i].stored_id) << "match " << i;
    EXPECT_EQ(actual[i].kind, expected[i].kind) << "match " << i;
    EXPECT_EQ(actual[i].similarity, expected[i].similarity) << "match " << i;
  }
}

TEST(CoreRollbackTest, RollbackEqualsTheCoreThatOnlySawThePrefix) {
  const std::vector<Event> events = Stream(400);
  // Both sides probe one way for the first `kSwitch` steps and the
  // other way afterwards: at the rollback one index kind is live on
  // each side and the other lags at the switch.
  constexpr size_t kSwitch = 60;
  for (ProbeMode live : {ProbeMode::kExact, ProbeMode::kApproximate}) {
    const ProbeMode lagging = live == ProbeMode::kExact
                                  ? ProbeMode::kApproximate
                                  : ProbeMode::kExact;
    for (size_t cut : {kSwitch, kSwitch + 1, size_t{137}, size_t{250},
                       size_t{399}, size_t{400}}) {
      SCOPED_TRACE(testing::Message()
                   << "live " << ProbeModeName(live) << " cut " << cut);
      HybridJoinCore rolled(Spec());
      HybridJoinCore prefix(Spec());
      for (HybridJoinCore* core : {&rolled, &prefix}) {
        core->SetProbeModes(lagging, lagging);
        Feed(core, events, 0, kSwitch);
        core->SetProbeModes(live, live);
      }
      Feed(&rolled, events, kSwitch, events.size());
      rolled.RollbackTo(CountSide(events, cut, Side::kLeft),
                        CountSide(events, cut, Side::kRight));
      Feed(&prefix, events, kSwitch, cut);
      ExpectSameCore(rolled, prefix, events);

      // The next switch catches up exactly the same tuples...
      EXPECT_EQ(rolled.SetProbeModes(lagging, live),
                prefix.SetProbeModes(lagging, live));
      // ...and the rest of the input, processed again, joins the same
      // way.
      ExpectSameMatches(Feed(&rolled, events, cut, events.size()),
                        Feed(&prefix, events, cut, events.size()));
      ExpectSameCore(rolled, prefix, events);
    }
  }
}

TEST(CoreRollbackTest, RollbackToEverythingOrMoreIsANoOp) {
  const std::vector<Event> events = Stream(120);
  HybridJoinCore rolled(Spec());
  HybridJoinCore untouched(Spec());
  for (HybridJoinCore* core : {&rolled, &untouched}) {
    core->SetProbeModes(ProbeMode::kApproximate, ProbeMode::kExact);
    Feed(core, events, 0, events.size());
  }
  rolled.RollbackTo(rolled.store(Side::kLeft).size(),
                    rolled.store(Side::kRight).size() + 5);
  ExpectSameCore(rolled, untouched, events);
}

TEST(ExactIndexRollbackTest, MatchesAnIndexThatOnlySawThePrefix) {
  // Enough distinct keys to rehash several times and fill the table to
  // its load limit, so removed keys sit inside long probe runs of kept
  // ones (including runs reordered by a rehash after they were added).
  // Tuples are indexed one step at a time, as a live index is, so the
  // table grows (and re-places its slots) between insertions.
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back("K" + std::to_string((i * 7919) % 1700));
  }
  for (size_t cut : {size_t{0}, size_t{1}, size_t{700}, size_t{1699},
                     size_t{2500}, size_t{2999}}) {
    SCOPED_TRACE(testing::Message() << "cut " << cut);
    storage::TupleStore rolled_store(0);
    ExactIndex rolled;
    for (const std::string& key : keys) {
      rolled_store.Add(Tuple{Value(key)});
      rolled.CatchUpWith(rolled_store);
    }
    rolled.RollbackTo(cut);
    storage::TupleStore prefix_store(0);
    for (size_t i = 0; i < cut; ++i) prefix_store.Add(Tuple{Value(keys[i])});
    ExactIndex prefix;
    prefix.CatchUpWith(prefix_store);
    EXPECT_EQ(rolled.watermark(), prefix.watermark());
    EXPECT_EQ(rolled.distinct_keys(), prefix.distinct_keys());
    for (int k = 0; k < 1700; ++k) {
      const std::string key = "K" + std::to_string(k);
      ASSERT_EQ(rolled.Lookup(key), prefix.Lookup(key)) << key;
    }
  }
}

TEST(ExactIndexRollbackTest, KeyWrappedByARehashStaysReachable) {
  // K and R share their home slot at the end of the table, so R wraps
  // to slot 0. Growing the table re-places slots in array order: R
  // first, into the shared home, and K past it — wrapped again. Rolling
  // R back must shift K into the freed home, or K becomes unreachable.
  const auto find_keys = [](const std::string& prefix, size_t count,
                            auto wanted) {
    std::vector<std::string> found;
    for (int i = 0; found.size() < count; ++i) {
      const std::string key = prefix + std::to_string(i);
      if (wanted(Fnv1a64(key))) found.push_back(key);
    }
    return found;
  };
  const std::vector<std::string> last =
      find_keys("W", 2, [](uint64_t h) { return (h & 31) == 31; });
  // Eleven fillers homed away from both ends of the table: the twelfth
  // distinct key after K and R grows it from 16 to 32 slots.
  const std::vector<std::string> fillers = find_keys(
      "F", 11, [](uint64_t h) { return (h & 31) >= 2 && (h & 31) <= 12; });
  storage::TupleStore store(0);
  ExactIndex index;
  for (const std::string& key : {last[0], last[1]}) {
    store.Add(Tuple{Value(key)});
    index.CatchUpWith(store);
  }
  for (const std::string& key : fillers) {
    store.Add(Tuple{Value(key)});
    index.CatchUpWith(store);
  }
  ASSERT_EQ(index.distinct_keys(), 13u);
  index.RollbackTo(1);
  EXPECT_EQ(index.distinct_keys(), 1u);
  EXPECT_EQ(index.Lookup(last[0]), std::vector<storage::TupleId>{0});
  EXPECT_TRUE(index.Lookup(last[1]).empty());
}

TEST(TupleStoreTruncateTest, ReAddedRowsGetTheSameIdsAndBytes) {
  const std::vector<Event> events = Stream(90);
  storage::TupleStore full(0, text::QGramOptions());
  storage::TupleStore truncated(0, text::QGramOptions());
  for (const Event& e : events) full.Add(e.tuple);
  for (const Event& e : events) truncated.Add(e.tuple);
  for (storage::TupleId id = 0; id < truncated.size(); ++id) {
    (void)truncated.Grams(id);
    if (id % 3 == 0 && truncated.SetMatchedAny(id)) {
      truncated.IncrementMatchedAnyCount();
    }
  }
  truncated.Truncate(40);
  EXPECT_EQ(truncated.size(), 40u);
  EXPECT_EQ(truncated.matched_any_count(), 14u);  // ids 0, 3, ..., 39
  for (size_t i = 40; i < events.size(); ++i) {
    EXPECT_EQ(truncated.Add(events[i].tuple), i);
  }
  ASSERT_EQ(truncated.size(), full.size());
  for (storage::TupleId id = 0; id < full.size(); ++id) {
    EXPECT_EQ(truncated.JoinKey(id), full.JoinKey(id));
    EXPECT_EQ(truncated.GetTuple(id), full.GetTuple(id));
    EXPECT_EQ(truncated.Grams(id).grams(), full.Grams(id).grams());
  }
}

}  // namespace
}  // namespace join
}  // namespace aqp
