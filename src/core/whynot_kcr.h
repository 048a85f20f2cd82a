// The KcR-tree-based bound-and-prune why-not algorithm (Section V).
//
// Candidates are processed in batches of equal edit distance (Algorithm 4);
// each batch is resolved in a single traversal of the KcR-tree
// (Algorithm 3): every frontier node contributes MaxDom/MinDom dominator
// bounds per candidate, expanding a node replaces its contribution with its
// children's tighter bounds, and candidates are pruned as soon as their
// penalty lower bound exceeds the best known penalty.
//
// The generalized entry point traverses several KcR-trees at once (one per
// frozen segment of a live dataset, docs/SEGMENTS.md) plus a set of
// exactly-scored extra objects (the in-memory delta). Tombstoned objects
// are masked per segment: leaf evaluation skips invisible objects, and
// inner-node MinDom bounds are slackened by the segment's tombstone count
// (a valid lower bound — hidden objects can only remove dominators), which
// also forces any node that could hide a tombstoned dominator open until
// its leaves resolve visibility exactly. With a single fully-visible
// segment and no extras the traversal is bit-identical to the frozen-tree
// algorithm.
#ifndef WSK_CORE_WHYNOT_KCR_H_
#define WSK_CORE_WHYNOT_KCR_H_

#include <vector>

#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/kcr_tree.h"
#include "index/merged_source.h"
#include "index/topk.h"

namespace wsk {

// One frozen segment's KcR-tree plus its visibility mask.
struct KcrSegmentSource {
  const KcrTree* tree = nullptr;
  // nullptr: every object in the tree is visible.
  const ObjectVisibility* visibility = nullptr;
  // Number of objects in `tree` hidden by `visibility` (an upper bound is
  // sound; the exact count gives the tightest MinDom slack).
  uint32_t shadow_count = 0;
};

// The full multi-segment traversal input. `rank_source` answers the
// R(M, q) rank queries (a merged best-first source over the same segments);
// `extras` are delta objects scored exactly (their dominate counts feed
// both bound sums, so they never delay convergence).
struct KcrMultiSource {
  std::vector<KcrSegmentSource> segments;
  std::vector<const SpatialObject*> extras;
  const TopKSource* rank_source = nullptr;
  double diagonal = 1.0;
};

// Answers the keyword-adapted why-not query over the KcR-tree(s). Requires
// the Jaccard similarity model (Theorem 3's pseudo-similarity algebra);
// other models are rejected with InvalidArgument. Multiple missing objects
// are supported per Section VI-A: a node's bounds w.r.t. M aggregate the
// per-object bounds.
StatusOr<WhyNotResult> AnswerWhyNotKcr(const ObjectStore& store,
                                       const KcrMultiSource& source,
                                       const SpatialKeywordQuery& original,
                                       const std::vector<ObjectId>& missing,
                                       const WhyNotOptions& options);

}  // namespace wsk

#endif  // WSK_CORE_WHYNOT_KCR_H_
