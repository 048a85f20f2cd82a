// The KcR-tree-based bound-and-prune why-not search (Section V).
//
// Candidates are processed in batches of equal edit distance (Algorithm 4);
// each batch is resolved in a single traversal of the KcR-tree
// (Algorithm 3): every frontier node contributes MaxDom/MinDom dominator
// bounds per candidate, expanding a node replaces its contribution with its
// children's tighter bounds, and candidates are pruned as soon as their
// penalty lower bound exceeds the best known penalty.
//
// The traversal reads the frame's WhyNotPlan directly: every plan segment's
// KcR-tree at once (one per frozen segment of a live dataset or per shard,
// docs/SEGMENTS.md) plus the plan's extras, exactly-scored objects outside
// any tree (the in-memory deltas). Tombstoned objects are masked per
// segment: leaf evaluation skips invisible objects, and inner-node MinDom
// bounds are slackened by the segment's shadow count (a valid lower bound —
// hidden objects can only remove dominators), which also forces any node
// that could hide a tombstoned dominator open until its leaves resolve
// visibility exactly. Extras enter both bound sums equally, so a plan with
// no segments converges at once. With a single fully-visible segment and no
// extras the traversal is bit-identical to the frozen-tree algorithm.
#ifndef WSK_CORE_WHYNOT_KCR_H_
#define WSK_CORE_WHYNOT_KCR_H_

#include "core/whynot_common.h"

namespace wsk::internal {

// Ranks the frame's candidates, which must be in canonical order, one
// Algorithm 3 traversal per edit-distance batch. Requires the Jaccard
// similarity model (Theorem 3's pseudo-similarity algebra); multiple
// missing objects are supported per Section VI-A: a node's bounds w.r.t. M
// aggregate the per-object bounds.
Status SearchByKcrBatches(const SearchFrame& frame);

}  // namespace wsk::internal

#endif  // WSK_CORE_WHYNOT_KCR_H_
