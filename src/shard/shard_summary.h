// Per-shard pruning metadata: an MBR, keyword union/intersection sets and
// each union term's length code, exactly the summary a SetR-tree inner
// node carries (Section IV-B plus the length-aware bound, setr_tree.h),
// lifted to whole shards. ShardUpperBound evaluates the same MaxScore bound
// against the summary, so a shard whose bound cannot beat the running
// global kth score is never visited (docs/SHARDING.md "Bound pruning").
//
// The summary is maintained conservatively under mutations: inserts and
// updates extend the MBR, grow the union, shrink the intersection, and
// lower a term's code to the new document's; deletes leave it untouched.
// Every transition keeps mbr ⊇ {live locations}, uni ⊇ every live doc,
// inter ⊆ every live doc, and min_len[t] <= LengthCode(|o|) for every live
// o containing t, so the bound stays an upper bound for the shard's whole
// lifetime (it only gets looser, never unsound).
#ifndef WSK_SHARD_SHARD_SUMMARY_H_
#define WSK_SHARD_SHARD_SUMMARY_H_

#include <limits>
#include <vector>

#include "common/geometry.h"
#include "data/query.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

struct ShardSummary {
  Rect mbr;
  KeywordSet uni;    // superset of every live document in the shard
  // Parallel to uni: at most the LengthCode of every live document
  // containing the term.
  std::vector<uint8_t> min_len;
  KeywordSet inter;  // subset of every live document in the shard
  bool has_objects = false;
};

// Updates the summary in place; allocates only for a term new to the union.
inline void AbsorbObject(ShardSummary* summary, Point loc,
                         const KeywordSet& doc) {
  summary->mbr.Extend(loc);
  AddDocLengths(doc, &summary->uni, &summary->min_len);
  if (!summary->has_objects) {
    summary->inter = doc;
    summary->has_objects = true;
  } else if (!summary->inter.empty()) {
    summary->inter = summary->inter.Intersect(doc);
  }
}

// Upper-bounds Score(o, query) over every object the shard can contain
// (Theorem 1 applied to the shard summary): the spatial term uses MinDist
// to the MBR, the textual term the same union/intersection and length-aware
// bound the SetR-tree uses for inner nodes. Empty shards bound at -inf.
inline double ShardUpperBound(const ShardSummary& summary,
                              const SpatialKeywordQuery& query,
                              double diagonal) {
  if (!summary.has_objects) {
    return -std::numeric_limits<double>::infinity();
  }
  const double min_sdist = MinDist(query.loc, summary.mbr) / diagonal;
  const double tsim_bound =
      NodeSimilarityUpperBound(summary.uni, summary.min_len.data(),
                               summary.inter, query.doc, query.model);
  return query.alpha * (1.0 - min_sdist) + (1.0 - query.alpha) * tsim_bound;
}

}  // namespace wsk

#endif  // WSK_SHARD_SHARD_SUMMARY_H_
