// The leaf scorer both tree sources share (SetR-tree, Section IV-B;
// KcR-tree, Section V-A): turns a decoded leaf — entries with `object` and
// `loc`, plus one keyword set per entry — into exactly-scored object
// SearchEntries, ST(o, q) per Eqn 1, for every slot of one expansion.
//
// Scoring kernel: a query doc is frozen as the universe once per node, so
// each object's similarity is one footprint + popcount instead of a sorted
// merge; every score is bit-identical to Score() (docs/PERF.md).
#ifndef WSK_INDEX_LEAF_SCORER_H_
#define WSK_INDEX_LEAF_SCORER_H_

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "data/query.h"
#include "index/topk.h"
#include "text/keyword_set.h"
#include "text/score_kernel.h"

namespace wsk {

// Appends to each slot's output one object entry per leaf object whose
// exact score exceeds the slot's floor, in leaf order, and adds the number
// of objects examined (emitted or not) to its count. A floor of -inf emits
// every object, -inf scores too.
//
// Universe. A slot alone is scored against its own query doc. A batch
// freezes the union of its query docs once and footprints each object once
// for every slot; each query doc is a subset of the union, so |doc ∩ q| and
// |q| — the only inputs to the similarity — are the integers the query's
// own universe yields, and the scores are bit-identical
// (tests/batch_topk_test). A union too wide for one mask falls back to
// each slot's own universe.
//
// Disjoint skip: an object sharing no query term scores
// alpha (1 - sdist) + (1 - alpha) 0.0. With sdist >= 0 (+inf included) and
// alpha > 0, fl(1 - sdist) <= 1 and IEEE multiplication and addition round
// monotonically, so that double is at most alpha — with or without a fused
// multiply-add. When alpha <= floor such an object cannot be emitted, so
// its distance is never computed. A NaN query location makes every score
// NaN, which is never <= floor; the skip stays off then.
template <typename LeafEntry>
void ScoreLeaf(const std::vector<LeafEntry>& entries,
               const std::vector<KeywordSet>& docs, double diagonal,
               std::span<const ExpandSlot> slots) {
  CandidateUniverse shared;
  std::vector<Footprint> footprints;
  if (slots.size() > 1) {
    KeywordSet union_doc = slots[0].query->doc;
    for (const ExpandSlot& slot : slots.subspan(1)) {
      union_doc = union_doc.Union(slot.query->doc);
    }
    shared = CandidateUniverse::Build(union_doc);
    if (shared.valid()) {
      footprints.reserve(docs.size());
      for (const KeywordSet& doc : docs) {
        footprints.push_back(shared.FootprintOf(doc));
      }
    }
  }
  for (const ExpandSlot& slot : slots) {
    const SpatialKeywordQuery& query = *slot.query;
    const CandidateUniverse own = shared.valid()
                                      ? CandidateUniverse()
                                      : CandidateUniverse::Build(query.doc);
    const CandidateUniverse& qu = shared.valid() ? shared : own;
    const CandidateMask qmask = !qu.valid()        ? 0
                                : shared.valid() ? qu.MaskOf(query.doc)
                                                 : qu.FullMask();
    const double alpha = query.alpha;
    const double floor = slot.floor;
    const bool floored = floor > -std::numeric_limits<double>::infinity();
    const bool skip_disjoint = 0.0 < alpha && alpha <= floor &&
                               !std::isnan(query.loc.x) &&
                               !std::isnan(query.loc.y);
    for (size_t i = 0; i < entries.size(); ++i) {
      const double tsim =
          !qu.valid() ? TextualSimilarity(docs[i], query.doc, query.model)
          : footprints.empty()
              ? ScoreCandidate(qu.FootprintOf(docs[i]), qmask, query.model)
              : ScoreCandidate(footprints[i], qmask, query.model);
      if (skip_disjoint && tsim == 0.0) continue;
      const double sdist = Distance(entries[i].loc, query.loc) / diagonal;
      const double score = alpha * (1.0 - sdist) + (1.0 - alpha) * tsim;
      if (floored && score <= floor) continue;
      SearchEntry entry;
      entry.bound = score;
      entry.is_object = true;
      entry.object = entries[i].object;
      slot.out->push_back(entry);
    }
    *slot.objects_scored += entries.size();
  }
}

}  // namespace wsk

#endif  // WSK_INDEX_LEAF_SCORER_H_
