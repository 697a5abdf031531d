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

/// Verification by gram-set intersection, over the verify list.
/// Entries outside the plan's length band are dropped; each survivor
/// must share at least max(k, MinPairOverlap) grams with the probe (an
/// in-band pair always has a MinPairOverlap: the band admits exactly
/// the sizes whose full overlap reaches the threshold). That bound is
/// the smallest overlap reaching the threshold — similarity is
/// nondecreasing in the overlap — so every pair reaching it matches,
/// with its similarity computed from the full overlap. A candidate's
/// overlap is at most its T(t) count plus `unseen`, the shared grams
/// its count cannot have seen; candidates that cannot reach the bound
/// that way are dropped before their gram sets are merged. Everything
/// up to that merge reads only the index's gram-count lane, the memo
/// and T(t); a candidate's gram set is touched only once it survives
/// the count prune. Tuples that never reached the verification count
/// are not on the list, so nothing here is read for them.
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

/// ℓ, the T(t) count at which a tuple is verified: 2 when the probe
/// scans a count-only list (k >= 2 with the prefix scan), else 1.
uint32_t VerifyCount(const ProbePlan& plan, const ApproxProbeOptions& options) {
  return options.insert_phase_optimization && plan.min_overlap >= 2 ? 2 : 1;
}

/// Lists a probe of `g` grams scans: g-k+ℓ with the prefix scan (the
/// discovery lists plus the count-only one), else all g.
size_t ScannedLists(const ProbePlan& plan, size_t g,
                    const ApproxProbeOptions& options) {
  return options.insert_phase_optimization
             ? g - plan.min_overlap + VerifyCount(plan, options)
             : g;
}

/// The end of the part of `postings` below `limit` (lists are in id
/// order; usually all of it).
std::vector<storage::TupleId>::const_iterator EndBelow(
    const std::vector<storage::TupleId>& postings, storage::TupleId limit) {
  if (postings.empty() || postings.back() < limit) return postings.end();
  return std::lower_bound(postings.begin(), postings.end(), limit);
}

/// The scan-and-verify body of both entry points. `work.scan` holds the
/// probe's lists in scan order: all but the last `verify_at - 1`
/// discover candidates, the rest only count. A tuple joins the verify
/// list when its count first reaches `verify_at`. Only ids below
/// `limit` are read.
size_t ScanAndVerify(const QGramIndex& index, const storage::TupleStore& store,
                     std::string_view probe_key,
                     const text::GramSet& probe_grams, const JoinSpec& spec,
                     const ProbePlan& plan, uint32_t verify_at,
                     storage::TupleId limit, Side probe_side,
                     storage::TupleId probe_id, ApproxProbeScratch& work,
                     ApproxProbeStats* stats, std::vector<JoinMatch>* out) {
  const size_t out_begin = out->size();
  const size_t scanned = work.scan.size();
  const size_t discover = scanned - (verify_at - 1);
  work.BeginProbe(limit);
  for (size_t i = 0; i < scanned; ++i) {
    const std::vector<storage::TupleId>* postings = work.scan[i];
    if (postings == nullptr) continue;
    const auto begin = postings->begin();
    const auto end = EndBelow(*postings, limit);
    if (stats != nullptr) {
      stats->postings_scanned += static_cast<uint64_t>(end - begin);
    }
    if (i < discover) {
      for (auto it = begin; it != end; ++it) {
        const storage::TupleId candidate = *it;
        if (!work.Contains(candidate)) {
          work.Add(candidate, 1);
          if (verify_at == 1) work.candidates.push_back(candidate);
        } else if (++work.Count(candidate) == verify_at) {
          work.candidates.push_back(candidate);
        }
      }
    } else {
      for (auto it = begin; it != end; ++it) {
        const storage::TupleId candidate = *it;
        if (work.Contains(candidate) &&
            ++work.Count(candidate) == verify_at) {
          work.candidates.push_back(candidate);
        }
      }
    }
  }
  // Each count is the tuple's shared grams among the scanned lists, so
  // only the g - scanned unscanned ones can add to it.
  VerifyCandidates(index, store, probe_key, probe_grams, spec, plan,
                   probe_grams.size() - scanned, probe_side, probe_id, work,
                   stats, out);
  // Deterministic output order (candidates come in verify-list order);
  // only the region this probe appended is reordered.
  std::sort(out->begin() + static_cast<ptrdiff_t>(out_begin), out->end(),
            [](const JoinMatch& a, const JoinMatch& b) {
              return a.stored_id < b.stored_id;
            });
  return out->size() - out_begin;
}

}  // namespace

void ApproxProbeScratch::BeginProbe(size_t limit) {
  candidates.clear();
  if (table.size() < limit) table.resize(limit);
  if (++stamp == 0) {
    std::fill(table.begin(), table.end(), Slot{});
    stamp = 1;
  }
}

size_t ApproxProbeScratch::ApproximateMemoryUsage() const {
  return ranks.capacity() * sizeof(uint64_t) +
         (lists.capacity() + scan.capacity()) *
             sizeof(const std::vector<storage::TupleId>*) +
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
    if (scratch != nullptr) scratch->selected = 0;
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
  const uint32_t verify_at = VerifyCount(plan, options);
  const size_t scanned = ScannedLists(plan, g, options);

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
  // The `scanned` smallest ranks to the front, the largest of them
  // last (the count-only list when verify_at is 2); the unscanned lists
  // are the longest. Without rare_grams_first the ranks stay in key
  // order.
  if (options.rare_grams_first && (scanned < g || verify_at > 1)) {
    std::nth_element(ranks.begin(),
                     ranks.begin() + static_cast<ptrdiff_t>(scanned - 1),
                     ranks.end());
  }
  work.selected = scanned;
  work.scan.clear();
  for (size_t i = 0; i < scanned; ++i) {
    work.scan.push_back(lists[static_cast<uint32_t>(ranks[i])]);
  }
  return ScanAndVerify(index, store, probe_key, probe_grams, spec, plan,
                       verify_at,
                       static_cast<storage::TupleId>(index.watermark()),
                       probe_side, probe_id, work, stats, out);
}

size_t ProbeSelectedApproximateInto(
    const QGramIndex& index, const storage::TupleStore& store,
    std::string_view probe_key, const text::GramSet& probe_grams,
    const JoinSpec& spec, Side probe_side, storage::TupleId probe_id,
    const ApproxProbeOptions& options, const uint32_t* selected,
    size_t selected_count, storage::TupleId id_limit,
    ApproxProbeScratch* scratch, ApproxProbeStats* stats,
    std::vector<JoinMatch>* out) {
  const size_t g = probe_grams.size();
  assert(g > 0 && scratch != nullptr);
  if (stats != nullptr) stats->grams += g;
  ApproxProbeScratch& work = *scratch;
  const ProbePlan plan =
      work.pair_overlaps.Select(spec.measure, spec.sim_threshold, g);
  assert(selected_count == ScannedLists(plan, g, options) &&
         "the selection comes from a probe of the same grams and spec");
  const std::vector<text::GramKey>& keys = probe_grams.grams();
  work.scan.clear();
  for (size_t i = 0; i < selected_count; ++i) {
    assert(selected[i] < g);
    work.scan.push_back(index.Postings(keys[selected[i]]));
  }
  // Ids at or past the limit are never read, so T(t) need not cover
  // them; nor, past the watermark, can any posting hold one.
  const auto limit = static_cast<storage::TupleId>(
      std::min<size_t>(id_limit, index.watermark()));
  return ScanAndVerify(index, store, probe_key, probe_grams, spec, plan,
                       VerifyCount(plan, options), limit, probe_side,
                       probe_id, work, stats, out);
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
