// The leaf scorer both tree sources share (SetR-tree, Section IV-B;
// KcR-tree, Section V-A): turns a decoded leaf — entries with `object` and
// `loc`, plus one keyword set per entry — into exactly-scored object
// SearchEntries, ST(o, q) per Eqn 1.
//
// Scoring kernel: the (small) query doc is frozen as the universe once per
// node, so each object's similarity is one footprint + popcount instead of
// a sorted merge; every score is bit-identical to Score() (docs/PERF.md).
#ifndef WSK_INDEX_LEAF_SCORER_H_
#define WSK_INDEX_LEAF_SCORER_H_

#include <cmath>
#include <limits>
#include <vector>

#include "common/geometry.h"
#include "common/macros.h"
#include "data/query.h"
#include "index/topk.h"
#include "text/keyword_set.h"
#include "text/score_kernel.h"

namespace wsk {

// Appends one object entry per leaf object whose exact score exceeds
// `floor`, in leaf order, and returns the number of objects examined
// (emitted or not). A floor of -inf emits every object, -inf scores too.
//
// Disjoint skip: an object sharing no query term scores
// alpha (1 - sdist) + (1 - alpha) 0.0. With sdist >= 0 (+inf included) and
// alpha > 0, fl(1 - sdist) <= 1 and IEEE multiplication and addition round
// monotonically, so that double is at most alpha — with or without a fused
// multiply-add. When alpha <= floor such an object cannot be emitted, so
// its distance is never computed. A NaN query location makes every score
// NaN, which is never <= floor; the skip stays off then.
template <typename LeafEntry>
size_t ScoreLeaf(const std::vector<LeafEntry>& entries,
                 const std::vector<KeywordSet>& docs, double diagonal,
                 const SpatialKeywordQuery& query, double floor,
                 std::vector<SearchEntry>* out) {
  const double alpha = query.alpha;
  const bool floored = floor > -std::numeric_limits<double>::infinity();
  const bool skip_disjoint = 0.0 < alpha && alpha <= floor &&
                             !std::isnan(query.loc.x) &&
                             !std::isnan(query.loc.y);
  const CandidateUniverse qu = CandidateUniverse::Build(query.doc);
  const CandidateMask qmask = qu.valid() ? qu.FullMask() : 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const double tsim =
        qu.valid()
            ? ScoreCandidate(qu.FootprintOf(docs[i]), qmask, query.model)
            : TextualSimilarity(docs[i], query.doc, query.model);
    if (skip_disjoint && tsim == 0.0) continue;
    const double sdist = Distance(entries[i].loc, query.loc) / diagonal;
    const double score = alpha * (1.0 - sdist) + (1.0 - alpha) * tsim;
    if (floored && score <= floor) continue;
    SearchEntry entry;
    entry.bound = score;
    entry.is_object = true;
    entry.object = entries[i].object;
    out->push_back(entry);
  }
  return entries.size();
}

// Scores one leaf for `count` queries at once: outs[i] receives exactly
// what ScoreLeaf(..., *queries[i], -inf, outs[i]) appends. The union of the
// batch's query docs is frozen as one universe, so each object needs a
// single footprint for the whole batch. Every query doc is a subset of the
// union, so |doc ∩ q| and |q| — the only inputs to the similarity — are the
// integers the solo per-query universe produces, and the scores are
// bit-identical (tests/batch_topk_test).
template <typename LeafEntry>
void ScoreLeafBatch(const std::vector<LeafEntry>& entries,
                    const std::vector<KeywordSet>& docs, double diagonal,
                    const SpatialKeywordQuery* const* queries,
                    std::vector<SearchEntry>* const* outs, size_t count) {
  WSK_CHECK(count > 0);
  constexpr double kNoFloor = -std::numeric_limits<double>::infinity();
  KeywordSet union_doc = queries[0]->doc;
  bool mixed_models = false;
  for (size_t qi = 1; qi < count; ++qi) {
    union_doc = union_doc.Union(queries[qi]->doc);
    if (queries[qi]->model != queries[0]->model) mixed_models = true;
  }
  const CandidateUniverse qu = CandidateUniverse::Build(union_doc);
  if (!qu.valid()) {
    // Union too wide for one mask: per-query universes, shared decode.
    for (size_t qi = 0; qi < count; ++qi) {
      ScoreLeaf(entries, docs, diagonal, *queries[qi], kNoFloor, outs[qi]);
    }
    return;
  }
  std::vector<CandidateMask> qmasks(count);
  for (size_t qi = 0; qi < count; ++qi) {
    qmasks[qi] = qu.MaskOf(queries[qi]->doc);
  }
  std::vector<double> tsims(count);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Footprint fp = qu.FootprintOf(docs[i]);
    if (mixed_models) {
      for (size_t qi = 0; qi < count; ++qi) {
        tsims[qi] = ScoreCandidate(fp, qmasks[qi], queries[qi]->model);
      }
    } else {
      ScoreAllCandidates(fp, qmasks.data(), count, queries[0]->model,
                         tsims.data());
    }
    for (size_t qi = 0; qi < count; ++qi) {
      const SpatialKeywordQuery& query = *queries[qi];
      const double sdist = Distance(entries[i].loc, query.loc) / diagonal;
      SearchEntry entry;
      entry.bound = query.alpha * (1.0 - sdist) +
                    (1.0 - query.alpha) * tsims[qi];
      entry.is_object = true;
      entry.object = entries[i].object;
      outs[qi]->push_back(entry);
    }
  }
}

}  // namespace wsk

#endif  // WSK_INDEX_LEAF_SCORER_H_
