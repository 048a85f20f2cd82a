// Sealed on-disk segment (docs/SEGMENTS.md).
//
// An immutable object table with an IndexPair — a SetR-tree and a KcR-tree
// STR-packed over it, pinned to the dataset's global diagonal so every
// segment scores with the same SDist normalizer, each in its own paged
// file with its own buffer pool. The only mutable state is the shadow
// array: one atomic tombstone sequence per object, set when a later
// mutation deletes or supersedes an object that lives here. Queries resolve
// visibility per object against their snapshot sequence; the trees
// themselves are never modified, so decoded-node caching and the shared
// NodeCache remain sound.
//
// Retirement: when the last snapshot referencing a retired segment drops
// it, the destructor folds the segment's cumulative I/O counters into the
// manager's retired-I/O accumulator, keeping the backend's aggregate
// counters monotone across merges. The IndexPair then erases both trees'
// entries from the shared NodeCache by tree id — their ids are never
// reused, so no later segment can collide — and deletes the index files.
#ifndef WSK_SEGMENT_FROZEN_SEGMENT_H_
#define WSK_SEGMENT_FROZEN_SEGMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "index/index_pair.h"
#include "index/merged_source.h"
#include "storage/io_stats.h"
#include "storage/node_cache.h"

namespace wsk {

// Retired segments fold their I/O counters here; the sum is monotone.
class RetiredIoAccumulator {
 public:
  void Add(const BackendIoSnapshot& io) {
    std::lock_guard<std::mutex> lock(mu_);
    total_ += io;
  }
  BackendIoSnapshot Total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  std::atomic<uint64_t> segments_retired{0};

 private:
  mutable std::mutex mu_;
  BackendIoSnapshot total_;
};

class FrozenSegment {
 public:
  // Builds the index pair over `objects` (ids preserved, need not be
  // dense). `node_cache` (optional) is attached to both trees; `retired`
  // (optional) receives the segment's I/O totals at destruction. Both
  // borrowed pointers must outlive the segment.
  static StatusOr<std::shared_ptr<FrozenSegment>> Build(
      std::vector<SpatialObject> objects, double diagonal,
      const IndexPair::Options& options, NodeCache* node_cache,
      RetiredIoAccumulator* retired);

  ~FrozenSegment();
  FrozenSegment(const FrozenSegment&) = delete;
  FrozenSegment& operator=(const FrozenSegment&) = delete;

  const IndexPair& trees() const { return *trees_; }

  size_t num_objects() const { return objects_.size(); }
  const std::vector<SpatialObject>& objects() const { return objects_; }

  // The object with `id` regardless of shadow state, or nullptr.
  const SpatialObject* Find(ObjectId id) const;

  bool VisibleAt(ObjectId id, uint64_t seq) const;

  // Tombstone sequence of the object at table position `index`; 0 = live.
  uint64_t shadow_seq(uint32_t index) const {
    return shadow_[index].load(std::memory_order_relaxed);
  }

  // Writer side (under the manager's writer mutex): tombstones `id` as of
  // `del_seq`. Returns false when the id is not in this segment.
  bool Shadow(ObjectId id, uint64_t del_seq);

  // Total tombstones ever applied — an upper bound on the objects hidden
  // from any snapshot, which is what the KcR MinDom slack needs
  // (whynot_kcr.h: an upper bound is sound, tighter is faster).
  uint32_t shadow_total() const {
    return shadow_total_.load(std::memory_order_relaxed);
  }

  // Folds counter growth since the last fold into the retired accumulator
  // (no double counting: a baseline tracks what was already folded). The
  // manager calls this when the segment leaves the published view, so the
  // backend's aggregate counters never dip while old snapshots wind down;
  // the destructor folds the remainder. Callers must not race this with
  // itself (swap-time call runs under the writer mutex; the destructor runs
  // strictly after, when the last reference drops).
  void FoldIntoRetired();

 private:
  FrozenSegment() = default;

  std::vector<SpatialObject> objects_;
  std::unordered_map<ObjectId, uint32_t> index_;
  std::unique_ptr<std::atomic<uint64_t>[]> shadow_;
  std::atomic<uint32_t> shadow_total_{0};

  std::unique_ptr<IndexPair> trees_;
  RetiredIoAccumulator* retired_ = nullptr;
  BackendIoSnapshot folded_;  // what FoldIntoRetired already handed over
};

// Exact per-snapshot visibility filter over one frozen segment, handed to
// the KcR traversal (whynot_kcr.h) and the merged top-k source.
class FrozenVisibility : public ObjectVisibility {
 public:
  FrozenVisibility(const FrozenSegment* segment, uint64_t seq)
      : segment_(segment), seq_(seq) {}
  bool IsVisible(ObjectId id) const override {
    return segment_->VisibleAt(id, seq_);
  }

 private:
  const FrozenSegment* segment_;
  uint64_t seq_;
};

}  // namespace wsk

#endif  // WSK_SEGMENT_FROZEN_SEGMENT_H_
