// Index integrity verification (fsck for the tree files).
//
// Walks a finalized SetR-tree or KcR-tree and checks every structural
// invariant the query algorithms rely on:
//   * node fan-out within [1, capacity];
//   * leaf depth uniform and equal to the recorded height;
//   * every inner entry's MBR contains its subtree's points;
//   * SetR: entry union/intersection sets equal the recomputed subtree
//     union/intersection, and each union term's length code equals the
//     recomputed code of the subtree's shortest document containing it;
//   * KcR: entry cnt and keyword-count map equal the recomputed subtree
//     aggregates, and the root summary in the metadata matches;
//   * every referenced blob deserializes;
//   * the number of reachable objects equals num_objects().
// Returns OK or a Corruption status naming the first violated invariant.
#ifndef WSK_INDEX_VERIFY_H_
#define WSK_INDEX_VERIFY_H_

#include "common/status.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"

namespace wsk {

struct VerifyStats {
  uint64_t nodes_visited = 0;
  uint64_t objects_seen = 0;
  uint64_t blobs_read = 0;
};

Status VerifySetRTree(const SetRTree& tree, VerifyStats* stats = nullptr);
Status VerifyKcrTree(const KcrTree& tree, VerifyStats* stats = nullptr);

}  // namespace wsk

#endif  // WSK_INDEX_VERIFY_H_
