// SegmentedEngine: the live-dataset QueryBackend (docs/SEGMENTS.md).
//
// Wraps a SegmentManager and answers the full query surface through
// PlannedBackend over point-in-time snapshots: top-k walks the frozen
// SetR-trees plus the delta objects as one MergedTopKSource, and the
// KcR-based why-not algorithm traverses every frozen KcR-tree at once with
// per-segment tombstone masks and the delta objects as exactly-scored
// extras (whynot_kcr.h). The SDist normalizer is pinned to the seed
// dataset's diagonal at build time, so scores stay comparable across
// segments and across the dataset's whole lifetime.
//
// Unlike WhyNotEngine, the engine owns its vocabulary (a copy of the
// seed's, so term ids keep matching the seed) and does not reference the
// seed dataset after Build returns.
#ifndef WSK_SEGMENT_SEGMENTED_ENGINE_H_
#define WSK_SEGMENT_SEGMENTED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/planned_backend.h"
#include "segment/segment_manager.h"

namespace wsk {

// ObjectStore over one snapshot: id lookups resolve newest-first across
// active / sealed / frozen segments under the snapshot's visibility rule.
// The snapshot's shared_ptr keeps every segment alive, so returned object
// pointers stay valid for the store's lifetime. num_objects() reports the
// count the caller passes in (the engine passes the manager's live count;
// constructing the store never scans the segments).
class SnapshotStore : public ObjectStore {
 public:
  SnapshotStore(const Vocabulary* vocabulary,
                SegmentManager::Snapshot snapshot, size_t num_objects);

  const SpatialObject* FindObject(ObjectId id) const override;
  size_t num_objects() const override { return num_objects_; }
  const Vocabulary& vocabulary() const override { return *vocabulary_; }

 private:
  const Vocabulary* vocabulary_;
  SegmentManager::Snapshot snapshot_;
  size_t num_objects_ = 0;
};

class SegmentedEngine : public PlannedBackend {
 public:
  struct Config {
    std::string work_dir = "/tmp";
    uint32_t page_size = kDefaultPageSize;
    size_t buffer_bytes = 4u << 20;  // per index file, per segment
    uint32_t node_capacity = 100;
    SimilarityModel model = SimilarityModel::kJaccard;
    size_t node_cache_bytes = 8u << 20;  // shared across all segments
    // Merge policy knobs (docs/SEGMENTS.md "Merge policy").
    uint32_t delta_capacity = 4096;
    bool auto_merge = true;
    // When set, the engine interns and records document frequencies
    // through this externally owned vocabulary instead of copying the
    // seed's. The shard coordinator points every shard engine at one
    // global vocabulary so term ids and corpus-wide df stay identical to
    // an unsharded engine (docs/SHARDING.md). Must outlive the engine.
    Vocabulary* shared_vocabulary = nullptr;
  };

  // Seeds the engine with `seed`'s objects as the initial frozen segment
  // and a copy of its vocabulary; `seed` is not referenced afterwards.
  static StatusOr<std::unique_ptr<SegmentedEngine>> Build(const Dataset& seed,
                                                          const Config& config);

  ~SegmentedEngine() override;
  SegmentedEngine(const SegmentedEngine&) = delete;
  SegmentedEngine& operator=(const SegmentedEngine&) = delete;

  // --- QueryBackend query surface (thread-safe) ---

  // TopK(), TopKBatch() (one snapshot for the whole batch), Answer() and
  // Rank() (R(object, query), Eqn 3) come from PlannedBackend over one
  // snapshot: the frozen segments' index pairs with their tombstone
  // filters, and the visible delta objects as extras.
  WhyNotPlan PlanWhyNot() const override;

  BackendIoSnapshot io_snapshot() const override;
  NodeCache* node_cache() const override { return node_cache_.get(); }
  uint64_t dataset_version() const override;
  SegmentCountersSnapshot segment_counters() const override;

  // --- QueryBackend mutation surface (thread-safe, serialized) ---

  StatusOr<ObjectId> Insert(
      Point loc, const std::vector<std::string>& keywords) const override;
  Status Update(ObjectId id, Point loc,
                const std::vector<std::string>& keywords) const override;
  Status Delete(ObjectId id) const override;

  // Insert under a caller-chosen id (the shard coordinator allocates ids
  // globally so sharded and unsharded runs assign identical ids).
  StatusOr<ObjectId> InsertWithId(
      ObjectId id, Point loc,
      const std::vector<std::string>& keywords) const;

  // --- live-dataset extras ---

  // Synchronous compaction (tests, CLI, benchmarks).
  Status ForceMerge() const { return manager_->ForceMerge(); }

  SegmentManager::Snapshot GetSnapshot() const {
    return manager_->GetSnapshot();
  }
  SegmentManager* manager() const { return manager_.get(); }
  const Vocabulary& vocabulary() const { return *vocab(); }
  double diagonal() const { return manager_->diagonal(); }

 private:
  SegmentedEngine() = default;

  // The interning vocabulary: shared (coordinator-owned) or this engine's
  // own copy of the seed's.
  Vocabulary* vocab() const {
    return shared_vocab_ != nullptr ? shared_vocab_ : vocabulary_.get();
  }

  Vocabulary* shared_vocab_ = nullptr;
  std::unique_ptr<Vocabulary> vocabulary_;
  std::unique_ptr<NodeCache> node_cache_;
  std::unique_ptr<SegmentManager> manager_;  // declared last: drains merges
};

}  // namespace wsk

#endif  // WSK_SEGMENT_SEGMENTED_ENGINE_H_
