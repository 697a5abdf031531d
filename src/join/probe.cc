#include "join/probe.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "join/filter.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

namespace {

/// Appends one verified match, deciding exact vs approximate by
/// bytewise key equality.
void EmitMatch(const storage::TupleStore& store, std::string_view probe_key,
               Side probe_side, storage::TupleId probe_id,
               storage::TupleId candidate, double sim,
               ApproxProbeStats* stats, std::vector<JoinMatch>* out) {
  // Identical gram sets do not imply identical strings; the exact
  // flag (§3.3) requires bytewise equality.
  const bool equal = sim >= 1.0 && store.JoinKey(candidate) == probe_key;
  out->push_back(JoinMatch{probe_side, probe_id, candidate,
                           equal ? 1.0 : sim,
                           equal ? MatchKind::kExact
                                 : MatchKind::kApproximate});
  if (stats != nullptr) ++stats->matches;
}

/// Size of the intersection of two sorted gram lists, by merging them.
/// The merge stops as soon as the overlap found plus the grams left on
/// the shorter remaining side falls below `required`; the result is
/// then some count below `required`. Otherwise it is exact.
size_t BoundedOverlap(const std::vector<text::GramKey>& a,
                      const std::vector<text::GramKey>& b, size_t required) {
  size_t i = 0;
  size_t j = 0;
  size_t overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
      continue;
    }
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
    if (overlap + std::min(a.size() - i, b.size() - j) < required) break;
  }
  return overlap;
}

/// Verification by gram-set intersection. T(t) entries outside the
/// plan's length band are dropped; each survivor must share at least max(k,
/// MinPairOverlap) grams with the probe (an in-band pair always has a
/// MinPairOverlap: the band admits exactly the sizes whose full overlap
/// reaches the threshold). That bound is the smallest overlap reaching
/// the threshold — similarity is nondecreasing in the overlap — so
/// every pair reaching it matches, with its similarity computed from
/// the full overlap. A candidate's overlap is at most its T(t) count
/// plus `unseen`, the shared grams its count cannot have seen;
/// candidates that cannot reach the bound that way are dropped before
/// their gram sets are merged. Everything up to that merge reads only
/// the index's gram-count lane, the memo and T(t); a candidate's gram
/// set is touched only once it survives the count prune.
void VerifyCandidates(const QGramIndex& index,
                      const storage::TupleStore& store,
                      std::string_view probe_key,
                      const text::GramSet& probe_grams, const JoinSpec& spec,
                      const ProbePlan& plan, size_t unseen, Side probe_side,
                      storage::TupleId probe_id, ApproxProbeScratch& work,
                      ApproxProbeStats* stats, std::vector<JoinMatch>* out) {
  const size_t g = probe_grams.size();
  for (storage::TupleId candidate : work.candidates) {
    const size_t candidate_size = index.GramSetSize(candidate);
    if (!plan.InBand(candidate_size)) continue;
    if (stats != nullptr) ++stats->candidates;
    const size_t required = work.pair_overlaps.Required(candidate_size);
    const size_t bound = std::max<size_t>(plan.min_overlap, required);
    if (work.Count(candidate) + unseen < bound) continue;
    const size_t overlap = BoundedOverlap(
        probe_grams.grams(), index.GramSetOf(candidate).grams(), bound);
    if (overlap < bound) continue;
    if (stats != nullptr) ++stats->verified;
    EmitMatch(store, probe_key, probe_side, probe_id, candidate,
              text::SetSimilarityFromOverlap(spec.measure, g, candidate_size,
                                             overlap),
              stats, out);
  }
}

}  // namespace

void ApproxProbeScratch::BeginProbe(size_t tuples) {
  candidates.clear();
  if (table.size() < tuples) table.resize(tuples);
  if (++stamp == 0) {
    std::fill(table.begin(), table.end(), Slot{});
    stamp = 1;
  }
}

size_t ApproxProbeScratch::ApproximateMemoryUsage() const {
  return ranks.capacity() * sizeof(uint64_t) +
         lists.capacity() * sizeof(const std::vector<storage::TupleId>*) +
         candidates.capacity() * sizeof(storage::TupleId) +
         table.capacity() * sizeof(Slot) +
         pair_overlaps.ApproximateMemoryUsage();
}

ProbePlan PairOverlapMemo::Select(text::SimilarityMeasure measure,
                                  double threshold, size_t probe_size) {
  if (!keyed_ || measure != measure_ || threshold != threshold_) {
    rows_.clear();
    measure_ = measure;
    threshold_ = threshold;
    keyed_ = true;
  }
  if (rows_.size() <= probe_size) rows_.resize(probe_size + 1);
  Row& row = rows_[probe_size];
  if (row.plan.min_overlap == 0) {
    const size_t k =
        text::MinOverlapForThreshold(measure, probe_size, threshold);
    assert(k >= 1 && k <= probe_size && "k lies in [1, g]");
    const GramCountBand band = LengthBandFor(measure, probe_size, threshold);
    row.plan.min_overlap = static_cast<uint32_t>(k);
    row.plan.band_lo = static_cast<uint32_t>(std::max<size_t>(1, band.lo));
    constexpr size_t kMaxSize = std::numeric_limits<uint32_t>::max();
    row.plan.band_hi = static_cast<uint32_t>(std::min(band.hi, kMaxSize));
  }
  probe_size_ = probe_size;
  return row.plan;
}

void PairOverlapMemo::Fill(Row* row, size_t stored_size) const {
  for (size_t size = row->plan.band_lo + row->required.size();
       size <= stored_size; ++size) {
    const std::optional<size_t> required =
        MinPairOverlap(measure_, probe_size_, size, threshold_);
    assert(required.has_value() && "an in-band pair has a feasible overlap");
    row->required.push_back(static_cast<uint32_t>(*required));
  }
}

size_t PairOverlapMemo::ApproximateMemoryUsage() const {
  size_t bytes = rows_.capacity() * sizeof(Row);
  for (const Row& row : rows_) {
    bytes += row.required.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void ApproxProbeStats::MergeFrom(const ApproxProbeStats& other) {
  grams += other.grams;
  postings_scanned += other.postings_scanned;
  candidates += other.candidates;
  verified += other.verified;
  matches += other.matches;
}

size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                      uint64_t key_hash, Side probe_side,
                      storage::TupleId probe_id, std::vector<JoinMatch>* out) {
  const size_t out_begin = out->size();
  // The chain yields newest-first; reverse the appended region so
  // matches come out oldest-first (insertion order), as the bucket
  // enumeration always has.
  for (storage::TupleId stored = index.ChainHead(key, key_hash);
       stored != ExactIndex::kNone; stored = index.ChainPrev(stored)) {
    out->push_back(
        JoinMatch{probe_side, probe_id, stored, 1.0, MatchKind::kExact});
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(out_begin), out->end());
  return out->size() - out_begin;
}

std::vector<JoinMatch> ProbeExact(const ExactIndex& index,
                                  std::string_view key, Side probe_side,
                                  storage::TupleId probe_id) {
  std::vector<JoinMatch> out;
  ProbeExactInto(index, key, probe_side, probe_id, &out);
  return out;
}

size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key,
                            const text::GramSet& probe_grams,
                            const JoinSpec& spec, Side probe_side,
                            storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeScratch* scratch,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out) {
  const size_t out_begin = out->size();
  const size_t g = probe_grams.size();
  if (stats != nullptr) stats->grams += g;

  if (g == 0) {
    // Degenerate probe (possible only without padding): it can only
    // match stored tuples that are also gram-less, by string equality.
    for (storage::TupleId stored : index.empty_gram_tuples()) {
      if (store.JoinKey(stored) == probe_key) {
        out->push_back(JoinMatch{probe_side, probe_id, stored, 1.0,
                                 MatchKind::kExact});
        if (stats != nullptr) ++stats->matches;
      }
    }
    return out->size() - out_begin;
  }

  // The probe's working memory: caller-provided scratch when available
  // (steady-state probes allocate nothing), else probe-local.
  ApproxProbeScratch local;
  ApproxProbeScratch& work = scratch != nullptr ? *scratch : local;
  const ProbePlan plan =
      work.pair_overlaps.Select(spec.measure, spec.sim_threshold, g);
  // Only g-k+1 lists can hold a match's first shared gram.
  const size_t scan_end =
      options.insert_phase_optimization ? g - plan.min_overlap + 1 : g;

  // One posting lookup per gram: its length ranks the gram ("reverse
  // frequency order" = rarest first), its pointer feeds the scan. The
  // position in the low half breaks length ties by gram key, since the
  // gram set is sorted by key.
  assert(g <= std::numeric_limits<uint32_t>::max());
  auto& ranks = work.ranks;
  auto& lists = work.lists;
  ranks.clear();
  lists.clear();
  const std::vector<text::GramKey>& keys = probe_grams.grams();
  for (size_t at = 0; at < g; ++at) {
    const std::vector<storage::TupleId>* postings = index.Postings(keys[at]);
    const uint64_t length = postings != nullptr ? postings->size() : 0;
    ranks.push_back(length << 32 | at);
    lists.push_back(postings);
  }
  // The scan_end smallest ranks to the front; the k-1 skipped lists are
  // the longest. Without rare_grams_first the ranks stay in key order.
  if (options.rare_grams_first && scan_end < g) {
    std::nth_element(ranks.begin(),
                     ranks.begin() + static_cast<ptrdiff_t>(scan_end),
                     ranks.end());
  }
  work.BeginProbe(index.watermark());
  for (size_t i = 0; i < scan_end; ++i) {
    const std::vector<storage::TupleId>* postings =
        lists[static_cast<uint32_t>(ranks[i])];
    if (postings == nullptr) continue;
    if (stats != nullptr) stats->postings_scanned += postings->size();
    for (storage::TupleId candidate : *postings) {
      if (work.Contains(candidate)) {
        ++work.Count(candidate);
      } else {
        work.Add(candidate, 1);
        work.candidates.push_back(candidate);
      }
    }
  }
  // Each count is the tuple's shared grams among the scanned lists, so
  // only the g - scan_end skipped ones can add to it.
  VerifyCandidates(index, store, probe_key, probe_grams, spec, plan,
                   g - scan_end, probe_side, probe_id, work, stats, out);
  // Deterministic output order (candidates come in discovery order);
  // only the region this probe appended is reordered.
  std::sort(out->begin() + static_cast<ptrdiff_t>(out_begin), out->end(),
            [](const JoinMatch& a, const JoinMatch& b) {
              return a.stored_id < b.stored_id;
            });
  return out->size() - out_begin;
}

size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key, const JoinSpec& spec,
                            Side probe_side, storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out) {
  const text::GramSet probe_grams = text::GramSet::Of(probe_key, spec.qgram);
  return ProbeApproximateInto(index, store, probe_key, probe_grams, spec,
                              probe_side, probe_id, options,
                              /*scratch=*/nullptr, stats, out);
}

std::vector<JoinMatch> ProbeApproximate(const QGramIndex& index,
                                        const storage::TupleStore& store,
                                        std::string_view probe_key,
                                        const JoinSpec& spec, Side probe_side,
                                        storage::TupleId probe_id,
                                        const ApproxProbeOptions& options,
                                        ApproxProbeStats* stats) {
  std::vector<JoinMatch> out;
  ProbeApproximateInto(index, store, probe_key, spec, probe_side, probe_id,
                       options, stats, &out);
  return out;
}

}  // namespace join
}  // namespace aqp
