// Best-first top-k over a multi-segment snapshot (docs/SEGMENTS.md).
//
// Presents one logical TopKSource to TopKIterator / IndexTopK over N
// per-segment tree sources (SetR-trees for top-k and the BS rank
// traversals, KcR-trees for the KcR-based algorithm's rank source) plus the
// in-memory delta objects. The iterator's contract — every entry's bound is
// an upper bound on any object below it, exact for object entries — is
// preserved:
//
//   * A virtual root fans out to every segment root at +inf bound, so each
//     segment's own bounds take over immediately; delta objects enter the
//     frontier as exactly-scored object entries (Score with the pinned
//     dataset diagonal, the same arithmetic the tree leaves use — scores
//     are bit-identical to a freshly built tree over the same objects).
//   * Child PageIds are namespaced per segment ((segment+1) << 26 | local),
//     a monotone per-segment transform, so at equal bounds the expansion
//     order within one segment matches the plain single-tree order.
//   * Tombstoned objects are dropped at expansion via the per-segment
//     visibility filter; at most one version of an id is visible in the
//     whole snapshot, so the merged stream needs no dedup.
//
// Cross-segment kth-score bound pruning falls out of the best-first
// traversal: the iterator's global frontier is ordered by bound, so once k
// objects have emitted, no segment node whose bound is below the running
// kth score is ever expanded — segments prune each other through the shared
// heap.
#ifndef WSK_INDEX_MERGED_SOURCE_H_
#define WSK_INDEX_MERGED_SOURCE_H_

#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/query.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

// Per-object visibility filter over one frozen segment (tombstones at a
// snapshot sequence number). Implementations must be safe for concurrent
// use by query threads.
class ObjectVisibility {
 public:
  virtual ~ObjectVisibility() = default;
  virtual bool IsVisible(ObjectId id) const = 0;
};

// One segment's contribution to a merged traversal.
struct MergedSegment {
  const TopKSource* source = nullptr;
  // nullptr: every object in the segment is visible.
  const ObjectVisibility* visibility = nullptr;
};

class MergedTopKSource : public TopKSource {
 public:
  // Segment i owns the namespace (i + 1) << 26 of 2^26 local pages;
  // kVirtualRoot sits just below kInvalidPageId, outside every namespace.
  static constexpr PageId kVirtualRoot = 0xfffffffeu;
  static constexpr uint32_t kSegmentShift = 26;
  // The most segments a 32-bit PageId namespaces: 63. It bounds every plan,
  // since a shard adds at most one segment (a merge replaces all frozen and
  // sealed inputs with one) and ShardCoordinator::Build caps the shards.
  static constexpr size_t kMaxSegments =
      (size_t{1} << (32 - kSegmentShift)) - 1;

  // `extras` are borrowed pointers into delta-segment entries (stable for
  // the snapshot's lifetime); callers pass only visible objects. `trace`
  // (optional, borrowed) receives the segment.* counters.
  MergedTopKSource(std::vector<MergedSegment> segments,
                   std::vector<const SpatialObject*> extras, double diagonal,
                   TraceRecorder* trace = nullptr);

  PageId SearchRoot() const override;
  // The virtual root fans out per slot (delta objects are scored per query
  // anyway). A segment node is expanded once by the owning segment's
  // source, floors forwarded, and each slot's new entries are then
  // namespaced and filtered for visibility in place.
  Status ExpandNode(PageId node,
                    std::span<const ExpandSlot> slots) const override;

 private:
  static constexpr PageId kLocalMask = (1u << kSegmentShift) - 1;

  std::vector<MergedSegment> segments_;
  std::vector<const SpatialObject*> extras_;
  double diagonal_;
  TraceRecorder* trace_;
};

}  // namespace wsk

#endif  // WSK_INDEX_MERGED_SOURCE_H_
